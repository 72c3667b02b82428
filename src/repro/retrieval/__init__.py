"""Unified retrieval engine: plan → prefetch → decode pipeline.

Retrieval used to scatter its byte-range logic across three layers — the
progressive retriever read plane blocks one by one, the chunked dataset kept
its own per-shard sources, and the container served every range
synchronously.  This package centralises the pipeline the paper's Figures
6/7 presuppose:

* :mod:`repro.retrieval.plan` — the **planner**: turn an ROI + fidelity
  target into a deduplicated, coalesced list of ``(shard, byte-range,
  planes)`` fetch ops, computed from stream headers alone.  The op is the
  unit of I/O: a retriever reads each op with one source read.
* :mod:`repro.retrieval.prefetch` — the **prime cache** of remote reads:
  one future per planned op, fetched in the background by the event-loop
  prefetcher so round trips overlap per-shard decode; a request primes
  exactly the ops it reads.  A local file reads synchronously, with no
  wrapper.
* :mod:`repro.retrieval.engine` — :class:`~repro.retrieval.engine.RetrievalEngine`,
  the façade behind ``ChunkedDataset.read/refine`` and the one place a
  shard's source tower is assembled — for the dataset, the serving layer
  and the CLI alike — and where each shard's plan is decoded in-process.

Decoded output is bitwise-identical across serial and multiplexed reads, on
v1 and v2 streams and containers alike; the pipeline only changes *when*
bytes move.

``engine`` is imported lazily: it depends on
:mod:`repro.core.progressive`, which itself uses the planner, and the lazy
hop keeps the import graph acyclic.
"""

from __future__ import annotations

from repro.retrieval.plan import (
    FetchOp,
    RetrievalPlan,
    ShardPlan,
    coalesce_blocks,
    plan_stream_ops,
)
from repro.retrieval.prefetch import PrefetchSource

__all__ = [
    "FetchOp",
    "ShardPlan",
    "RetrievalPlan",
    "coalesce_blocks",
    "plan_stream_ops",
    "PrefetchSource",
    "RetrievalEngine",
]


def __getattr__(name: str):
    if name == "RetrievalEngine":
        from repro.retrieval.engine import RetrievalEngine

        return RetrievalEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
