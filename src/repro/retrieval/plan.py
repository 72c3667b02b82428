"""Stage 1 of the retrieval pipeline: fetch-op planning.

A *fetch op* is one contiguous byte range of one stream (or of one shard
block inside a container) together with the payload blocks it carries, held
as *spans*: one ``(level, first, stop)`` range per level — the §5 loader
always takes a prefix of a level's planes, and a level's planes are
contiguous, MSB first — plus the anchor as its own span.  The planner turns
"refine this region to this fidelity" into the minimal list of such ops:

* **deduplicated** — blocks already resident in a stateful retriever are
  never planned again (the Algorithm-2 never-re-read property, now enforced
  at the planning layer instead of ad hoc in each reader);
* **coalesced** — physically adjacent spans (the anchor plus the first
  planes, a level boundary crossed whole) merge into a single range read,
  so a plan touches the disk once per contiguous run instead of once per
  block, and costs one step per level instead of one per plane.

The planner works from parsed stream headers alone (the block extent table
of a :class:`repro.core.stream.BlockExtents` — a store's, or a dataset's
pinned shard's); it never touches payload bytes.  The op is the unit of
I/O: a retriever reads each op it plans with one source read
(:meth:`repro.core.stream.CompressedStore.read_op`), a remote prime cache
holds one future per op, and the serving layer and the CLI's plan
inspection see the same :class:`FetchOp` list — which is what makes the
accounting of every execution path identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.optimizer import LoadingPlan
from repro.core.stream import block_label

__all__ = [
    "ANCHOR_SPAN",
    "FetchOp",
    "ShardPlan",
    "RetrievalPlan",
    "Span",
    "coalesce_blocks",
    "plan_stream_ops",
]


#: What a fetch op carries, in offset order: ``(level, first, stop)`` is
#: planes ``first … stop − 1`` of one level, contiguous in the stream;
#: :data:`ANCHOR_SPAN` is the anchor block.
Span = Tuple[Optional[int], int, int]

ANCHOR_SPAN: Span = (None, 0, 1)


@dataclass(frozen=True)
class FetchOp:
    """One contiguous byte range to fetch and the blocks it carries.

    ``spans`` are the level ranges inside the range, in offset order
    (:data:`Span`); ``shard`` names the container block the range lives in
    (``None`` for a bare stream).  :attr:`blocks` spells them out as one
    label per block.
    """

    offset: int
    length: int
    spans: Tuple[Span, ...]
    shard: Optional[str] = None

    @property
    def end(self) -> int:
        return self.offset + self.length

    @property
    def blocks(self) -> Tuple[str, ...]:
        """The label of every block, in offset order: ``"anchor"`` or
        ``"L<level>/p<plane>"``."""
        return tuple(
            block_label(level, plane)
            for level, first, stop in self.spans
            for plane in range(first, stop)
        )

    @property
    def n_blocks(self) -> int:
        return sum(stop - first for _, first, stop in self.spans)

    def to_json(self) -> dict:
        obj = {
            "offset": self.offset,
            "length": self.length,
            "blocks": list(self.blocks),
        }
        if self.shard is not None:
            obj["shard"] = self.shard
        return obj


@dataclass(frozen=True)
class ShardPlan:
    """The planned fetch ops of one stream (one shard of a dataset).

    ``loading_plan`` is the optimizer's plan the ops were derived from —
    one DP run over the shard's pinned header — so whoever serves the shard
    hands it to :meth:`~repro.core.progressive.ProgressiveRetriever.retrieve`
    as ``plan=`` instead of planning again.  From scratch the two agree:
    :attr:`predicted_bytes` is ``loading_plan.total_bytes``.  A pinned shard
    hands the same plan to every request at the same target
    (:meth:`repro.retrieval.engine.PinnedShard.plan`): treat it as read-only.
    """

    shard: Optional[str]
    ops: List[FetchOp]
    #: Header bytes of the stream — read when the stream is first opened,
    #: before any planning can happen, so reported as overhead rather than
    #: as a plannable op.
    header_bytes: int
    loading_plan: LoadingPlan

    @property
    def target_keep(self) -> Dict[int, int]:
        """Planes to keep per level once the plan is applied."""
        return self.loading_plan.keep

    @property
    def op_bytes(self) -> int:
        return sum(op.length for op in self.ops)

    @property
    def predicted_bytes(self) -> int:
        """This shard's full predicted cost: planned ops plus its header.

        The per-shard version of :attr:`RetrievalPlan.predicted_bytes` —
        the unit the QoS scheduler debits from a client's byte budget and
        compares across concurrent plans to find shared shards.
        """
        return self.op_bytes + self.header_bytes

    @property
    def n_blocks(self) -> int:
        return sum(op.n_blocks for op in self.ops)

    def ranges(self) -> List[Tuple[int, int]]:
        """The coalesced ``(offset, length)`` ranges of this plan."""
        return [(op.offset, op.length) for op in self.ops]

    def to_json(self) -> dict:
        return {
            "shard": self.shard,
            "ops": [op.to_json() for op in self.ops],
            "op_bytes": self.op_bytes,
            "blocks": self.n_blocks,
            "header_bytes": self.header_bytes,
            "predicted_bytes": self.predicted_bytes,
            "target_keep": {str(k): v for k, v in sorted(self.target_keep.items())},
        }


@dataclass
class RetrievalPlan:
    """A full retrieval plan: per-shard fetch ops plus the predicted cost."""

    shards: List[ShardPlan]

    @property
    def op_bytes(self) -> int:
        """Predicted payload bytes (anchor + plane blocks) to fetch."""
        return sum(plan.op_bytes for plan in self.shards)

    @property
    def header_bytes(self) -> int:
        return sum(plan.header_bytes for plan in self.shards)

    @property
    def predicted_bytes(self) -> int:
        """Total bytes the request will touch, headers included.

        For remote datasets this doubles as the egress estimate: fetch ops
        map 1:1 onto ranged GETs (:mod:`repro.io.aio`), so a clean run's
        network bytes equal the plan's — over-fetch only appears as
        retries, hedges or failed attempts, visible in the trace's
        ``egress_bytes`` delta.
        """
        return self.op_bytes + self.header_bytes

    @property
    def n_ops(self) -> int:
        return sum(len(plan.ops) for plan in self.shards)

    @property
    def n_blocks(self) -> int:
        return sum(plan.n_blocks for plan in self.shards)

    def to_json(self) -> dict:
        return {
            "shards": [plan.to_json() for plan in self.shards],
            "ops": self.n_ops,
            "blocks": self.n_blocks,
            "op_bytes": self.op_bytes,
            "header_bytes": self.header_bytes,
            "predicted_bytes": self.predicted_bytes,
        }


def coalesce_blocks(
    spans: Sequence[Tuple[int, int, Span]], shard: Optional[str] = None
) -> List[FetchOp]:
    """Merge ``(offset, size, span)`` extents into contiguous fetch ops.

    Extents are sorted by offset first; zero-sized ones ride along inside
    (or at the edge of) whichever op they touch, so their blocks stay
    visible in the plan without producing empty reads.
    """
    ordered = sorted(spans, key=itemgetter(0))
    ops: List[FetchOp] = []
    run_start = run_end = 0
    run_spans: List[Span] = []
    for offset, size, span in ordered:
        if run_spans and offset <= run_end:
            run_end = max(run_end, offset + size)
            run_spans.append(span)
        else:
            if run_spans and run_end > run_start:
                ops.append(FetchOp(run_start, run_end - run_start, tuple(run_spans), shard))
            run_start, run_end, run_spans = offset, offset + size, [span]
    if run_spans and run_end > run_start:
        ops.append(FetchOp(run_start, run_end - run_start, tuple(run_spans), shard))
    return ops


def plan_stream_ops(
    store,
    current_keep: Optional[Dict[int, int]],
    target_keep: Dict[int, int],
    *,
    include_anchor: bool = False,
    shard: Optional[str] = None,
) -> List[FetchOp]:
    """Fetch ops that move one stream from ``current_keep`` to ``target_keep``.

    ``store`` is a :class:`repro.core.stream.BlockExtents` — a
    :class:`~repro.core.stream.CompressedStore` or a pinned shard.
    ``current_keep`` of ``None`` (or ``{}``) plans from scratch; per-level
    entries already at or above the target contribute nothing — the plan is
    the exact integer delta Algorithm 2 will read, deduplicated by
    construction.  Each level contributes one span, the planes it adds.
    ``include_anchor`` adds the anchor block (a retriever needs it until it
    has decoded it; after that it is never re-read).
    """
    resident = current_keep or {}
    spans: List[Tuple[int, int, Span]] = []
    if include_anchor:
        offset, size = store.anchor_extent()
        spans.append((offset, size, ANCHOR_SPAN))
    # Walk levels in stream layout order (descending level, planes MSB
    # first) so adjacent spans coalesce maximally.
    for enc in store.header.levels:
        old = max(0, int(resident.get(enc.level, 0)))
        new = int(target_keep.get(enc.level, 0))
        if new > old:
            offset, size = store.plane_span(enc.level, old, new)
            spans.append((offset, size, (enc.level, old, new)))
    return coalesce_blocks(spans, shard)
