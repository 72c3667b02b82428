"""The segment is the unit of decode: what a reader reads, charges and answers.

A level's planes are read as segments (:data:`repro.core.stream.Segment`):
a maximal run of planes stored raw at exactly their row size is copied
into the resident rows at once, any other plane is decoded on its own.
None of that may show outside: the trace keeps one entry per block in
stream order, the answer is bitwise the per-block decode, and a fetch op
still names every block it carries.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from oracle_kernel import plane_rows, shard_rows
from repro import IPComp, ProgressiveRetriever
from repro.core.profile import CodecProfile
from repro.core.stream import CompressedStore, IPCompStream

_rng = np.random.default_rng(4040)


def _mixed_stream() -> bytes:
    """A stream whose levels mix deflated planes and runs of stored ones."""
    shape = (14, 12, 10)
    base = np.cumsum(_rng.normal(size=shape), axis=0)
    field = (base + np.cumsum(_rng.normal(size=shape), axis=1)).astype(np.float64)
    return IPComp(profile=CodecProfile(error_bound=1e-6)).compress(field)


_BLOB = _mixed_stream()


def _per_block_answer(blob: bytes, keep) -> np.ndarray:
    """The answer at ``keep`` with every block decoded on its own."""
    retriever = ProgressiveRetriever(blob)
    store, coder, levels = retriever.store, retriever.coder, retriever.header.levels
    rows = {
        enc.level: plane_rows(
            [
                coder.decode_row(enc, p, store.read_block(enc.level, p))
                for p in range(keep[enc.level])
            ],
            enc.count,
        )
        for enc in levels
    }
    codes = coder.codes_from_rows(
        *shard_rows((rows[enc.level], enc.count, enc.nbits) for enc in levels)
    )
    anchor = coder.decode_anchor(store.read_anchor(), retriever.header.anchor_count)
    starts = accumulate((enc.count for enc in levels), initial=0)
    return retriever.predictor.reconstruct(
        anchor,
        codes,
        retriever.predictor.unit_offsets(dict(zip((enc.level for enc in levels), starts))),
        retriever.quantizer.bin_width,
    )


def _stream_order(store):
    return sorted(store.header.levels, key=lambda enc: -enc.level)


def test_trace_is_per_block_in_stream_order_across_cut_runs():
    retriever = ProgressiveRetriever(_BLOB)
    store = retriever.store
    segments = [seg for table in store._table.values() for seg in table.segments]
    runs = [(level, a, b) for level, a, b, stored in segments if stored and b - a > 1]
    assert runs and not all(stored for *_, stored in segments), "field should mix both"
    # First load ends inside a stored run; the second finishes every level.
    level, a, _ = runs[0]
    first = {enc.level: 0 for enc in store.header.levels}
    first[level] = a + 1
    retriever.retrieve(plan=retriever.loader._make_plan(first))
    full = {enc.level: enc.nbits for enc in store.header.levels}
    result = retriever.retrieve(plan=retriever.loader._make_plan(full))

    expected = [(0, 10), (10, store.header_bytes - 10), store.anchor_extent()]
    expected += store.plane_blocks(level, 0, a + 1)
    for enc in _stream_order(store):
        expected += store.plane_blocks(enc.level, first[enc.level], enc.nbits)
    assert store.trace == expected
    assert result.cumulative_bytes == len(_BLOB)
    assert result.data.tobytes() == _per_block_answer(_BLOB, full).tobytes()


def test_raw_plane_longer_than_its_row_decodes_alone_and_is_charged_whole():
    header, _ = IPCompStream.parse_header(_BLOB)
    store = CompressedStore(_BLOB)
    for enc in header.levels:
        enc.plane_blocks = [store.read_block(enc.level, p) for p in range(enc.nbits)]
    # The middle plane of the longest stored run gets three bytes of tail.
    level, a, b, _ = max(
        (seg for table in store._table.values() for seg in table.segments if seg[3]),
        key=lambda seg: seg[2] - seg[1],
    )
    assert b - a >= 3
    victim, plane = header.level(level), (a + b) // 2
    victim.plane_blocks[plane] += b"\xa5\x5a\xff"
    longer = IPCompStream.serialize(header, store.read_anchor(), header.levels)

    retriever = ProgressiveRetriever(longer)
    cut = [seg for seg in retriever.store._table[level].segments if seg[1] <= plane < seg[2]]
    assert cut == [(level, plane, plane + 1, False)]
    result = retriever.retrieve(error_bound=retriever.header.error_bound)
    offset, size = retriever.store.block_extent(level, plane)
    assert size == len(store.read_block(level, plane)) + 3
    assert (offset, size) in retriever.store.trace
    assert result.bytes_loaded == len(longer)
    # The tail is ignored, as ever: the answer is the original stream's.
    full = {enc.level: enc.nbits for enc in header.levels}
    original = ProgressiveRetriever(_BLOB).retrieve(error_bound=header.error_bound)
    assert result.data.tobytes() == original.data.tobytes()
    assert result.data.tobytes() == _per_block_answer(longer, full).tobytes()


# Taken from the per-block planner: every op still names each of its blocks.
_SCRATCH_OPS = [
    {"offset": 412, "length": 12, "blocks": ["anchor", "L6/p0"]},
    {"offset": 432, "length": 8, "blocks": [f"L5/p{p}" for p in range(8)]},
    {"offset": 442, "length": 4, "blocks": [f"L4/p{p}" for p in range(4)]},
    {"offset": 449, "length": 7, "blocks": [f"L3/p{p}" for p in range(7)]},
    {"offset": 458, "length": 16, "blocks": [f"L2/p{p}" for p in range(8)]},
    {"offset": 480, "length": 10, "blocks": [f"L1/p{p}" for p in range(5)]},
]
_DELTA_OPS = [
    {"offset": 424, "length": 8, "blocks": [f"L6/p{p}" for p in range(1, 9)]},
    {"offset": 440, "length": 2, "blocks": ["L5/p8", "L5/p9"]},
    {"offset": 446, "length": 3, "blocks": ["L4/p4", "L4/p5", "L4/p6"]},
    {"offset": 456, "length": 2, "blocks": ["L3/p7", "L3/p8"]},
    {"offset": 474, "length": 6, "blocks": ["L2/p8", "L2/p9", "L2/p10"]},
    {"offset": 490, "length": 6, "blocks": ["L1/p5", "L1/p6", "L1/p7"]},
]


def test_fetch_op_labels_and_json_are_per_block():
    field = 100.0 * np.sin(0.7 * np.arange(30.0)).reshape(6, 5)
    blob = IPComp(error_bound=1e-3, relative=True).compress(field)
    retriever = ProgressiveRetriever(blob)
    eb = retriever.header.error_bound
    coarse = retriever.plan_request(error_bound=64 * eb)
    scratch = retriever.pending_ops(plan=coarse)
    assert [op.to_json() for op in scratch] == _SCRATCH_OPS
    assert [list(op.blocks) for op in scratch] == [op["blocks"] for op in _SCRATCH_OPS]
    assert [op.n_blocks for op in scratch] == [len(op["blocks"]) for op in _SCRATCH_OPS]
    retriever.retrieve(plan=coarse)
    assert [op.to_json() for op in retriever.pending_ops(error_bound=eb)] == _DELTA_OPS
