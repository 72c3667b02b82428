"""The unified retrieval engine: plan → prefetch → decode pipeline.

Three invariant families pin the refactor:

* **planner** — fetch ops are deduplicated against resident planes,
  coalesced across physically adjacent blocks, and predict the request's
  byte cost exactly;
* **prime cache** — primed ranges are physically read at most once and
  served to the consumer per block; what was *consumed* is the store's
  trace, identical whatever sits between the store and the bytes;
* **byte-identity matrix** — decoded output is bitwise-identical across
  {v1, v2} streams × {serial, prefetch} execution paths, on bare
  streams and on containers (the acceptance criterion of the refactor).

NB: module-local rng only — the conftest ``rng`` fixture is session-scoped
and shared; consuming it here would shift downstream fixtures' draws.
"""

from __future__ import annotations

import asyncio
import json
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import legacy_layout, write_v1_container

from repro import ChunkedDataset, CodecProfile, IPComp, ProgressiveRetriever
from repro.core.stream import BytesSource, CompressedStore
from repro.errors import StreamFormatError
from repro.io import BlockContainerReader
from repro.io.aio import AsyncPrefetcher
from repro.io.container import BlockSource
from repro.retrieval.plan import coalesce_blocks, plan_stream_ops
from repro.retrieval.prefetch import PrefetchSource

DATA = Path(__file__).parent / "data"


def _local_rng(offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(50607 + offset)


def _field(shape, seed=0) -> np.ndarray:
    rng = _local_rng(seed)
    base = rng.normal(size=shape)
    for axis in range(len(shape)):
        base = np.cumsum(base, axis=axis)
    return (base + 0.1 * rng.normal(size=shape)).astype(np.float64)


# -------------------------------------------------------------------- planner


def test_coalesce_merges_adjacent_blocks_only():
    a, b, c, d, e = (5, 0, 1), (5, 1, 2), (4, 0, 1), (4, 1, 2), (3, 0, 1)
    ops = coalesce_blocks(
        [(0, 10, a), (10, 5, b), (20, 5, c), (25, 5, d), (40, 1, e)]
    )
    assert [(op.offset, op.length, op.spans) for op in ops] == [
        (0, 15, (a, b)),
        (20, 10, (c, d)),
        (40, 1, (e,)),
    ]


def test_coalesce_sorts_and_carries_zero_sized_blocks():
    a, b, z = (3, 0, 1), (3, 1, 2), (2, 0, 1)
    ops = coalesce_blocks([(30, 0, z), (10, 10, a), (20, 10, b)])
    assert len(ops) == 1
    assert ops[0].offset == 10 and ops[0].length == 20
    assert set(ops[0].spans) == {a, b, z}


def test_plan_stream_ops_from_scratch_covers_anchor_and_planes():
    blob = IPComp(error_bound=1e-4, relative=True).compress(_field((18, 14)))
    store = CompressedStore(blob)
    target = {enc.level: enc.nbits for enc in store.header.levels}
    ops = plan_stream_ops(store, None, target, include_anchor=True)
    total = sum(op.length for op in ops)
    assert total == store.header.payload_bytes()
    # Ops are disjoint, sorted, and the whole payload region is contiguous
    # in stream order, so a full-precision plan coalesces maximally.
    ends = [op.offset + op.length for op in ops]
    assert all(a.offset >= e for a, e in zip(ops[1:], ends))
    assert any("anchor" in op.blocks for op in ops)


def test_plan_stream_ops_dedupes_resident_planes():
    blob = IPComp(error_bound=1e-4, relative=True).compress(_field((18, 14)))
    store = CompressedStore(blob)
    full = {enc.level: enc.nbits for enc in store.header.levels}
    half = {level: keep // 2 for level, keep in full.items()}
    delta_ops = plan_stream_ops(store, half, full, include_anchor=False)
    labels = [b for op in delta_ops for b in op.blocks]
    assert "anchor" not in labels
    for enc in store.header.levels:
        for plane in range(half[enc.level]):
            assert f"L{enc.level}/p{plane}" not in labels
        for plane in range(half[enc.level], full[enc.level]):
            assert f"L{enc.level}/p{plane}" in labels
    # Already at (or above) target: nothing to fetch.
    assert plan_stream_ops(store, full, full, include_anchor=False) == []


def test_retriever_pending_ops_predict_exact_bytes():
    blob = IPComp(error_bound=1e-5, relative=True).compress(_field((20, 16), 1))
    retriever = ProgressiveRetriever(blob)
    eb = retriever.header.error_bound
    ops = retriever.pending_ops(error_bound=eb * 32)
    first = retriever.retrieve(error_bound=eb * 32)
    # Predicted = anchor + planned planes; actual adds the header bytes.
    assert sum(op.length for op in ops) + retriever.store.header_bytes == (
        first.bytes_loaded
    )
    # Refinement ops predict the delta exactly, and shrink to zero when the
    # target is already resident.
    ops = retriever.pending_ops(error_bound=eb)
    second = retriever.retrieve(error_bound=eb)
    assert sum(op.length for op in ops) == second.bytes_loaded
    assert retriever.pending_ops(error_bound=eb * 32) == []


# ----------------------------------------------------------------- prefetcher


class _CountingSource:
    """In-memory async-capable source (what the event-loop prefetcher reads)."""

    supports_async = True

    def __init__(self, blob: bytes) -> None:
        self._inner = BytesSource(blob)
        self.size = self._inner.size
        self.reads = []

    def read_range(self, offset: int, length: int) -> bytes:
        self.reads.append((offset, length))
        return self._inner.read_range(offset, length)

    async def aread_range(self, offset: int, length: int) -> bytes:
        return self.read_range(offset, length)


@pytest.fixture
def prefetcher():
    made = AsyncPrefetcher()
    yield made
    made.close()


def test_prefetch_source_serves_primed_ranges_once(prefetcher):
    """One future per primed range: re-priming it schedules nothing, a read
    of exactly the range takes its future, a read inside it (a header parse
    inside the head prime) is sliced from it, and a miss is a direct read."""
    payload = bytes(range(256)) * 8
    inner = _CountingSource(payload)
    source = PrefetchSource(inner, prefetcher)
    assert source.prime([(0, 64), (128, 64)]) == 128
    prefetcher.loop_thread.call(asyncio.sleep(0))  # the first burst has left
    assert source.prime([(0, 64), (128, 64)]) == 0
    assert source.read_range(0, 10) == payload[0:10]
    assert source.read_range(10, 54) == payload[10:64]
    assert source.read_range(128, 64) == payload[128:192]
    # The op's future was handed out: a second read of it is direct, as is
    # a range nothing primed.
    assert source.read_range(128, 64) == payload[128:192]
    assert source.read_range(1024, 16) == payload[1024:1040]
    assert sorted(inner.reads) == [(0, 64), (128, 64), (128, 64), (1024, 16)]
    assert source.inflight == 0


def test_prefetch_source_without_prefetcher_is_passthrough(tmp_path):
    """A local file has no prime cache at all: whatever ``prefetch`` says,
    the store reads its block source directly (no thread, no wrapper)."""
    path = tmp_path / "local.rprc"
    ChunkedDataset.write(path, _field((12, 10), 1), error_bound=1e-4, n_blocks=2)
    with ChunkedDataset(path, prefetch=8) as dataset:
        assert type(dataset.open_shard("shard-0000").store.source) is BlockSource
        before = threading.active_count()
        dataset.refine()
        assert threading.active_count() == before


def test_store_trace_is_the_consumed_record():
    """The store records every read it issues, after the two header ranges —
    the same two whether it parsed the header or was handed ``parsed=``."""
    blob = IPComp(error_bound=1e-4, relative=True).compress(_field((16, 12), 2))
    inner = _CountingSource(blob)
    store = CompressedStore(inner)
    head = [(0, 10), (10, store.header_bytes - 10)]
    assert store.trace == head == inner.reads
    level = store.header.levels[0].level
    store.read_anchor()
    store.read_block(level, 0)
    assert store.trace == head + [store.anchor_extent(), store.block_extent(level, 0)]
    assert store.trace == inner.reads
    store.reset_accounting()  # bytes_read restarts per request; the trace never does
    assert store.bytes_read == 0 and len(store.trace) == 4
    pinned = CompressedStore(inner, parsed=store)
    assert pinned.trace == head and len(inner.reads) == 4


def test_a_retrieve_reads_each_planned_op_once():
    """The op is the unit of I/O: one source read per planned op, while the
    trace keeps one entry per block — the ranges a per-block walk records."""
    blob = IPComp(error_bound=1e-5, relative=True).compress(_field((20, 16), 1))
    inner = _CountingSource(blob)
    retriever = ProgressiveRetriever(CompressedStore(inner))
    eb = retriever.header.error_bound
    for target in (eb * 64, eb):
        ops = retriever.pending_ops(error_bound=target)
        before = len(inner.reads)
        result = retriever.retrieve(error_bound=target)
        assert inner.reads[before:] == [(op.offset, op.length) for op in ops]
        assert retriever.store.n_reads == len(ops)
    store = retriever.store
    walk = [store.anchor_extent()] + [
        store.block_extent(enc.level, plane)
        for enc in store.header.levels
        for plane in range(enc.nbits)
    ]
    assert sorted(store.trace[2:]) == sorted(walk)
    assert len(set(store.trace)) == len(store.trace)
    assert ProgressiveRetriever(blob).retrieve(error_bound=eb).data.tobytes() == (
        result.data.tobytes()
    )


def test_short_read_names_the_block():
    """A source that returns short bytes to a bare retriever is a
    ``StreamFormatError`` naming the op's blocks (or the one block) and the
    offset, never a decode of garbage."""
    blob = IPComp(error_bound=1e-4, relative=True).compress(_field((16, 12), 2))

    class _ShortPayload(BytesSource):
        def read_range(self, offset, length):
            data = super().read_range(offset, length)
            return data if offset < payload_start else data[:-1]

    payload_start = CompressedStore(blob).header_bytes
    retriever = ProgressiveRetriever(_ShortPayload(blob))
    with pytest.raises(
        StreamFormatError,
        match=rf"short read of fetch op \[anchor, .*L\d+/p\d+\]: wanted \d+ B "
        rf"at stream offset {payload_start}, got \d+",
    ):
        retriever.retrieve(error_bound=retriever.header.error_bound)
    assert retriever.store.bytes_read == 0 and len(retriever.store.trace) == 2
    with pytest.raises(StreamFormatError, match=r"short read of level \d+, plane 0"):
        retriever.store.read_block(retriever.header.levels[0].level, 0)


def test_prime_on_closed_prefetcher_degrades_to_sync_reads():
    """Regression: ``prime()`` against a prefetcher another request already
    closed must not propagate the shutdown ``RuntimeError`` — the source
    degrades to direct synchronous reads, bitwise-identical."""
    payload = bytes(range(256)) * 4
    inner = _CountingSource(payload)
    prefetcher = AsyncPrefetcher()
    prefetcher.close()
    source = PrefetchSource(inner, prefetcher)
    assert source.prime([(0, 64), (128, 64)]) == 0  # no crash, nothing primed
    assert source.read_range(0, 64) == payload[0:64]
    assert source.read_range(128, 64) == payload[128:192]
    # The physical reads are exactly the direct ones.
    assert inner.reads == [(0, 64), (128, 64)]


def test_cancelled_primed_read_degrades_to_sync_read():
    """Regression: a primed range whose future was cancelled by a mid-flight
    ``close`` must be re-read directly (bitwise-identical)."""
    payload = bytes(range(256)) * 4
    started = threading.Event()

    class _StalledSource(_CountingSource):
        async def aread_range(self, offset, length):
            started.set()
            await asyncio.sleep(30)  # on the wire until close() cancels it

    inner = _StalledSource(payload)
    prefetcher = AsyncPrefetcher()
    source = PrefetchSource(inner, prefetcher)
    assert source.prime([(0, 64), (128, 64)]) == 128
    assert started.wait(timeout=30)
    prefetcher.close()
    assert source.read_range(0, 64) == payload[0:64]  # cancelled: direct
    assert source.read_range(128, 64) == payload[128:192]
    # The stalled reads never returned bytes; the direct reads did.
    assert inner.reads == [(0, 64), (128, 64)]


def test_file_source_range_reads(tmp_path):
    """A bare stream file is the reader's one block: ranged reads, bounds
    and a retriever straight off the file."""
    blob = IPComp(error_bound=1e-4, relative=True).compress(_field((16, 12), 2))
    path = tmp_path / "s.ipc"
    path.write_bytes(blob)
    with BlockContainerReader(path) as reader:
        assert reader.is_stream and reader.block_names() == ["stream"]
        source = reader.source("stream")
        assert source.size == len(blob)
        assert source.read_range(4, 10) == blob[4:14]
        with pytest.raises(StreamFormatError):
            source.read_range(len(blob) - 2, 5)
        retriever = ProgressiveRetriever(source)
        out = retriever.retrieve(error_bound=retriever.header.error_bound)
    ref = ProgressiveRetriever(blob).retrieve(
        error_bound=retriever.header.error_bound
    )
    assert out.data.tobytes() == ref.data.tobytes()
    assert out.bytes_loaded == ref.bytes_loaded


# ------------------------------------------------- byte-identity matrix: v1/v2


def test_identity_matrix_streams(tmp_path, v1_blob):
    """{v1, v2} single streams through the dataset are the bare retriever."""
    v2_blob = IPComp(error_bound=1e-5, relative=True).compress(_field((20, 18), 3))
    for label, blob in (("v1", v1_blob), ("v2", v2_blob)):
        path = tmp_path / f"{label}.ipc"
        path.write_bytes(blob)
        header_version = struct.unpack_from("<HI", blob, 4)[0]
        assert header_version == (1 if label == "v1" else 2)
        serial = ProgressiveRetriever(blob)
        expected = serial.retrieve(error_bound=serial.header.error_bound)
        with ChunkedDataset(path, prefetch=4) as dataset:
            assert dataset.absolute_bound == serial.header.error_bound
            read = dataset.read()
        assert read.data.tobytes() == expected.data.tobytes()
        assert read.bytes_loaded == expected.bytes_loaded
        assert read.ranges == [("stream", o, n) for o, n in serial.store.trace]
    # The pinned decode stays byte-identical to the recorded expectation.
    pinned = np.load(DATA / "v1_expected.npy")
    out = ProgressiveRetriever(v1_blob)
    result = out.retrieve(error_bound=out.header.error_bound)
    assert result.data.tobytes() == pinned.tobytes()


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_identity_matrix_containers(tmp_path, version):
    """{v1, v2} containers × {serial, prefetch} are bitwise-identical."""
    if version == "v1":
        path = write_v1_container(tmp_path / "v1.rprc")
    else:
        path = tmp_path / "v2.rprc"
        ChunkedDataset.write(
            path, _field((24, 14, 10), 4), error_bound=1e-5, relative=True,
            n_blocks=4,
        )
    with ChunkedDataset(path) as dataset:
        eb = dataset.absolute_bound
        serial_full = dataset.read()
        serial_part = dataset.read(error_bound=eb * 16)
    with ChunkedDataset(path, prefetch=4) as dataset:
        assert dataset.read().data.tobytes() == serial_full.data.tobytes()
        part = dataset.read(error_bound=eb * 16)
        assert part.data.tobytes() == serial_part.data.tobytes()
        assert part.bytes_loaded == serial_part.bytes_loaded
        assert part.ranges == serial_part.ranges


def test_v1_container_decodes_the_pinned_payload(tmp_path):
    pinned = np.load(DATA / "v1_expected.npy")
    path = write_v1_container(tmp_path / "v1.rprc")
    with ChunkedDataset(path) as dataset:
        out = dataset.read()
    assert out.data.tobytes() == np.concatenate([pinned, pinned]).tobytes()


# ------------------------------------------------------------- shard errors


def test_pool_worker_errors_propagate(tmp_path):
    """A corrupt shard is a real error on the read, not a fallback.  The
    garbage lands on the shard's first payload block (its anchor): the read
    parses the header from the archive's header copies, so that is the
    first byte of the shard it reads."""
    from repro.errors import ReproError
    from repro.io import BlockContainerReader

    field = _field((16, 10), 5)
    path = tmp_path / "x.rprc"
    ChunkedDataset.write(path, field, error_bound=1e-4, n_blocks=2)
    with BlockContainerReader(path) as reader:
        offset = int(reader.directory["shard-0001"]["offset"])
    with ChunkedDataset(path) as dataset:
        offset += dataset.pinned_shard("shard-0001").header_bytes
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(b"IPC1 garbage that is not a stream")
    with ChunkedDataset(path) as dataset:
        with pytest.raises(ReproError):
            dataset.read()


def test_decompress_rejects_partial_coverage(tmp_path):
    """Shards whose slabs miss part of the domain are refused when the
    dataset opens: a short answer is an error, never uninitialised data."""
    from repro.io import BlockContainerWriter

    field = _field((16, 10), 7)
    full = tmp_path / "full.rprc"
    manifest = ChunkedDataset.write(full, field, error_bound=1e-4, n_blocks=4)
    manifest["shards"] = manifest["shards"][:-1]
    path = tmp_path / "short.rprc"
    with BlockContainerReader(full) as reader, BlockContainerWriter(path) as writer:
        for shard in manifest["shards"]:
            name = shard["name"]
            writer.add_block(name, reader.read_block(name), reader.metadata(name))
        writer.add_block("headers", reader.read_block("headers"))
        writer.add_block("manifest", json.dumps(manifest).encode())
    with pytest.raises(StreamFormatError, match="cover"):
        ChunkedDataset(path)


# ------------------------------------------------------------ engine requests


def test_refine_prefetch_preserves_accounting(tmp_path):
    field = _field((24, 12, 10), 6)
    path = tmp_path / "s.rprc"
    manifest = ChunkedDataset.write(
        path, field, error_bound=1e-6, relative=True, n_blocks=4
    )
    eb = manifest["error_bound"]
    ladder = (1024, 64, 8, 1)
    with ChunkedDataset(path) as dataset:
        sync = [dataset.refine(error_bound=eb * k) for k in ladder]
        # Every rung of a refinement is bitwise the read() of the same bound.
        for k, rung in zip(ladder, sync):
            fresh = dataset.read(error_bound=eb * k)
            assert rung.data.tobytes() == fresh.data.tobytes()
            assert rung.error_bound == fresh.error_bound
    with ChunkedDataset(path, prefetch=4) as dataset:
        spec = [dataset.refine(error_bound=eb * k) for k in ladder]
        # ``prefetch`` on a local file changes nothing (over HTTP the same
        # ladder multiplexes — tests/test_remote.py): identical accounting.
        for s, p in zip(sync, spec):
            assert p.data.tobytes() == s.data.tobytes()
            assert p.bytes_loaded == s.bytes_loaded
            assert p.ranges == s.ranges
            assert p.cumulative_bytes == s.cumulative_bytes
        seen = set()
        for p in spec:
            assert not (seen & set(p.ranges))
            seen |= set(p.ranges)


def test_local_reads_are_one_container_read_per_op(tmp_path):
    """A local ``read()`` / ``refine()`` makes one container read per
    planned op, plus the header reads of the shards it pins first: one read
    of the headers block per open dataset, or — in the legacy layout, which
    has no headers block — two reads per shard not yet pinned."""
    path = tmp_path / "ops.rprc"
    ChunkedDataset.write(
        path, _field((24, 12, 10), 6), error_bound=1e-5, relative=True,
        n_blocks=3,
    )
    roi = (slice(0, 10),)
    for archive, first_pin, per_shard in (
        (legacy_layout(path, tmp_path / "legacy.rprc"), 0, 2),
        (path, 1, 0),
    ):
        with ChunkedDataset(archive) as dataset:
            eb = dataset.absolute_bound

            def reads(call, *args, **kwargs):
                before = dataset.physical_reads
                call(*args, **kwargs)
                return dataset.physical_reads - before

            # The ROI pins two of three shards, the full read the third.
            first = reads(dataset.read, eb * 16, roi=roi)
            assert first == first_pin + per_shard * 2 + dataset.plan(eb * 16, roi).n_ops
            assert reads(dataset.read, eb * 16) == per_shard + dataset.plan(eb * 16).n_ops
            assert reads(dataset.read, eb * 16) == dataset.plan(eb * 16).n_ops
            # A refine rung reads the ops between the resident and the new
            # planes of every shard.
            resident = {}
            for factor in (256, 16, 1):
                plan = dataset.plan(eb * factor)
                delta = sum(
                    len(plan_stream_ops(
                        dataset.pinned_shard(p.shard), resident.get(p.shard),
                        p.target_keep, include_anchor=p.shard not in resident,
                    ))
                    for p in plan.shards
                )
                assert reads(dataset.refine, eb * factor) == delta > 0
                resident = dataset.current_keep()


def test_engine_plan_matches_read_bytes(tmp_path):
    field = _field((20, 14), 7)
    path = tmp_path / "p.rprc"
    manifest = ChunkedDataset.write(
        path, field, error_bound=1e-5, relative=True, n_blocks=3
    )
    eb = manifest["error_bound"]
    with ChunkedDataset(path) as dataset:
        for target, roi in ((eb * 16, None), (eb, (slice(2, 15),))):
            plan = dataset.plan(error_bound=target, roi=roi)
            result = dataset.read(error_bound=target, roi=roi)
            assert plan.predicted_bytes == result.bytes_loaded
            planned_shards = {p.shard for p in plan.shards}
            assert planned_shards == set(result.shards)
        # Plan inspection is JSON-clean for the CLI.
        payload = dataset.plan(error_bound=eb * 16).to_json()
        json.dumps(payload)
        assert payload["predicted_bytes"] == payload["op_bytes"] + payload["header_bytes"]


def test_dataset_plan_runs_one_dp_per_shard_and_pins_its_loader(tmp_path, monkeypatch):
    """``plan()`` plans each shard from its pinned metadata: one DP per
    shard and target, and the loaders are built once per open dataset, not
    per plan.  A repeat target is a lookup that hands back the same plan."""
    from repro.core.optimizer import OptimizedLoader

    path = tmp_path / "c.rprc"
    ChunkedDataset.write(
        path, _field((24, 12, 10), 8), error_bound=1e-5, relative=True,
        n_blocks=4,
    )
    plans, loaders = [], []
    real_plan, real_init = OptimizedLoader.plan_for_error_bound, OptimizedLoader.__init__

    def counting_plan(self, target_error):
        plans.append(target_error)
        return real_plan(self, target_error)

    def counting_init(self, *args, **kwargs):
        loaders.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(OptimizedLoader, "plan_for_error_bound", counting_plan)
    monkeypatch.setattr(OptimizedLoader, "__init__", counting_init)
    with ChunkedDataset(path) as dataset:
        eb, n = dataset.absolute_bound, dataset.n_shards
        first = dataset.plan(error_bound=eb * 8)
        assert (len(plans), len(loaders)) == (n, n)
        second = dataset.plan(error_bound=eb * 8)
        assert (len(plans), len(loaders)) == (n, n)
        assert all(a is b for a, b in zip(first.shards, second.shards))
        dataset.plan(error_bound=eb * 4)
        assert (len(plans), len(loaders)) == (2 * n, n)
    assert second.to_json() == first.to_json()


def test_remembered_plans_are_bounded_and_equal_fresh_ones(tmp_path, monkeypatch):
    """Each pinned shard remembers its last ``PLAN_MEMO`` targets: a plan
    handed back from memory equals one a fresh dataset makes, and the
    least recently used target is planned again once it has been pushed
    out."""
    from repro.core.optimizer import OptimizedLoader
    from repro.retrieval.engine import PLAN_MEMO

    path = tmp_path / "m.rprc"
    ChunkedDataset.write(
        path, _field((24, 12, 10), 10), error_bound=1e-5, relative=True,
        n_blocks=3,
    )
    plans = []
    real_plan = OptimizedLoader.plan_for_error_bound

    def counting_plan(self, target_error):
        plans.append(target_error)
        return real_plan(self, target_error)

    monkeypatch.setattr(OptimizedLoader, "plan_for_error_bound", counting_plan)
    roi = (slice(0, 7),)  # the first shard only
    with ChunkedDataset(path) as dataset:
        eb = dataset.absolute_bound
        targets = [eb * 2.0 ** k for k in range(PLAN_MEMO + 1)]
        remembered = [dataset.plan(target, roi) for target in targets[:PLAN_MEMO]]
        for target in reversed(targets[1:PLAN_MEMO]):  # refresh all but the first
            dataset.plan(target, roi)
        assert len(plans) == PLAN_MEMO
        dataset.plan(targets[PLAN_MEMO], roi)  # pushes out the first target
        assert dataset.plan(targets[1], roi).shards[0] is remembered[1].shards[0]
        assert len(plans) == PLAN_MEMO + 1
        again = dataset.plan(targets[0], roi)
        assert len(plans) == PLAN_MEMO + 2
        assert again.shards[0] is not remembered[0].shards[0]
    for target, plan in [*zip(targets, remembered), (targets[0], again)]:
        with ChunkedDataset(path) as fresh:
            assert fresh.plan(target, roi) == plan
            assert fresh.plan(target, roi).to_json() == plan.to_json()


def test_concurrent_first_plans_parse_each_header_once(tmp_path):
    """Threads planning an unpinned dataset at once parse each shard's
    header once, and its parse is claimed exactly once: two reads per shard
    in the legacy layout, the one read of the headers block otherwise."""
    import sys

    path = tmp_path / "c.rprc"
    ChunkedDataset.write(
        path, _field((24, 12, 10), 9), error_bound=1e-5, relative=True,
        n_blocks=4,
    )
    legacy = legacy_layout(path, tmp_path / "legacy.rprc")
    with BlockContainerReader(path) as reader:
        copies_bytes = reader.block_size("headers")
    n_threads = 8
    switch = sys.getswitchinterval()
    for archive in (legacy, path):
        barrier = threading.Barrier(n_threads)
        claims, plans = [], []
        sys.setswitchinterval(1e-6)
        try:
            with ChunkedDataset(archive) as dataset:
                before = dataset.physical_reads

                def worker():
                    barrier.wait(timeout=30)
                    plan = dataset.plan()
                    plans.append(plan)
                    claims.extend(
                        dataset.pinned_shard(p.shard).claim_parse() for p in plan.shards
                    )

                threads = [threading.Thread(target=worker) for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(claims) == n_threads * dataset.n_shards
                pinned = [dataset.pinned_shard(s.name) for s in dataset.shards]
                physical = dataset.physical_reads - before
        finally:
            sys.setswitchinterval(switch)
        if archive is legacy:
            assert physical == 2 * len(pinned)
            assert sum(reads for reads, _ in claims) == 2 * len(pinned)
            assert sum(nbytes for _, nbytes in claims) == sum(p.header_bytes for p in pinned)
        else:
            assert physical == 1
            assert [claim for claim in claims if claim != (0, 0)] == [(1, copies_bytes)]
            assert copies_bytes == sum(p.header_bytes for p in pinned)
        # Plans made at once by many threads are the plan a lone caller gets.
        with ChunkedDataset(archive) as fresh:
            assert len(plans) == n_threads and all(p == fresh.plan() for p in plans)


# ------------------------------------------------------------ profile knobs


def test_profile_prefetch_workers_are_runtime_only(tmp_path):
    """``prefetch`` is a read keyword and ``workers`` an ignored write one, neither a
    codec option: a profile file written before 9.0 that carries them loads
    (the keys are dropped), and ``ChunkedDataset`` — the read knob's one
    home — validates it instead of clamping a bad value to serial."""
    from repro.errors import ConfigurationError

    legacy = {**CodecProfile(method="linear").to_json(), "prefetch": 8, "workers": 4}
    assert CodecProfile.from_json(legacy) == CodecProfile(method="linear")
    assert set(CodecProfile().to_json()).isdisjoint({"prefetch", "workers"})
    path = tmp_path / "k.rprc"
    ChunkedDataset.write(path, _field((8, 6, 5), seed=3), error_bound=1e-3,
                         n_blocks=2)
    for knobs in ({"prefetch": -1}, {"prefetch": "two"}, {"prefetch": 1.5},
                  {"prefetch": True}):
        with pytest.raises(ConfigurationError, match=next(iter(knobs))):
            ChunkedDataset(path, **knobs)
    with pytest.raises(TypeError):
        ChunkedDataset(path, CodecProfile())
