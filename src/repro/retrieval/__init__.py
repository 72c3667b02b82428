"""Unified retrieval engine: plan → prefetch → pool-decode pipeline.

Retrieval used to scatter its byte-range logic across three layers — the
progressive retriever read plane blocks one by one, the chunked dataset kept
its own per-shard sources, and the container served every range
synchronously.  This package centralises the pipeline the paper's Figures
6/7 presuppose:

* :mod:`repro.retrieval.plan` — the **planner**: turn an ROI + fidelity
  target into a deduplicated, coalesced list of ``(shard, byte-range,
  planes)`` fetch ops, computed from stream headers alone.
* :mod:`repro.retrieval.prefetch` — the **prefetcher**: a bounded
  thread-backed reader that primes planned ranges in the background so disk
  I/O overlaps per-shard decode (and ``refine()`` can speculatively fetch
  the next fidelity rung).
* :mod:`repro.retrieval.pooldecode` — the **pool decode stage**: worker
  processes read shards off a local container file and write the
  reconstructed slabs straight into one shared-memory output segment keyed
  by partition extents, the decode-side mirror of the encode slab
  transport (*shared memory or in-process* — nothing is pickled back).
* :mod:`repro.retrieval.engine` — :class:`~repro.retrieval.engine.RetrievalEngine`,
  the façade all three consumers drive: ``ChunkedDataset.read/refine``,
  :class:`~repro.core.progressive.ProgressiveRetriever` (which primes its
  own planned ranges whenever its source supports it), and the CLI
  ``retrieve`` command.

Decoded output is bitwise-identical across every path — serial, prefetch,
pool — on v1 and v2 streams and containers alike; the pipeline only changes
*when* and *where* bytes move.

``engine`` and ``pooldecode`` are imported lazily: they depend on
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
from repro.retrieval.prefetch import Prefetcher, PrefetchSource

__all__ = [
    "FetchOp",
    "ShardPlan",
    "RetrievalPlan",
    "coalesce_blocks",
    "plan_stream_ops",
    "Prefetcher",
    "PrefetchSource",
    "RetrievalEngine",
    "open_stream_source",
]


def __getattr__(name: str):
    if name == "RetrievalEngine":
        from repro.retrieval.engine import RetrievalEngine

        return RetrievalEngine
    if name == "open_stream_source":
        from repro.retrieval.engine import open_stream_source

        return open_stream_source
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
