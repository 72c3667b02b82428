"""The unified retrieval engine: plan → prefetch → pool-decode pipeline.

Three invariant families pin the refactor:

* **planner** — fetch ops are deduplicated against resident planes,
  coalesced across physically adjacent blocks, and predict the request's
  byte cost exactly;
* **prefetcher** — primed ranges are physically read at most once, served
  to the consumer per block, and the *consumed* trace (what accounting
  reports) is identical to the synchronous path's;
* **byte-identity matrix** — decoded output is bitwise-identical across
  {v1, v2} streams × {serial, prefetch, pool} execution paths, on bare
  streams and on containers (the acceptance criterion of the refactor).

NB: module-local rng only — the conftest ``rng`` fixture is session-scoped
and shared; consuming it here would shift downstream fixtures' draws.
"""

from __future__ import annotations

import json
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import ChunkedDataset, CodecProfile, IPComp, ProgressiveRetriever
from repro.core.stream import BytesSource, CompressedStore
from repro.io import BlockContainerWriter
from repro.io.container import FileSource
from repro.parallel.executor import BlockParallelCompressor
from repro.retrieval.plan import coalesce_blocks, plan_stream_ops
from repro.retrieval.prefetch import Prefetcher, PrefetchSource

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
    ops = coalesce_blocks(
        [(0, 10, "a"), (10, 5, "b"), (20, 5, "c"), (25, 5, "d"), (40, 1, "e")]
    )
    assert [(op.offset, op.length, op.blocks) for op in ops] == [
        (0, 15, ("a", "b")),
        (20, 10, ("c", "d")),
        (40, 1, ("e",)),
    ]


def test_coalesce_sorts_and_carries_zero_sized_blocks():
    ops = coalesce_blocks([(30, 0, "z"), (10, 10, "a"), (20, 10, "b")])
    assert len(ops) == 1
    assert ops[0].offset == 10 and ops[0].length == 20
    assert set(ops[0].blocks) == {"a", "b", "z"}


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
    def __init__(self, blob: bytes) -> None:
        self._inner = BytesSource(blob)
        self.size = self._inner.size
        self.reads = []

    def read_range(self, offset: int, length: int) -> bytes:
        self.reads.append((offset, length))
        return self._inner.read_range(offset, length)


def test_prefetch_source_serves_primed_ranges_once():
    payload = bytes(range(256)) * 8
    inner = _CountingSource(payload)
    with Prefetcher(depth=2) as prefetcher:
        source = PrefetchSource(inner, prefetcher)
        source.prime([(0, 64), (128, 64)])
        # Re-priming overlapping ranges must only read the gaps.
        source.prime([(0, 96), (128, 64)])
        assert source.read_range(0, 32) == payload[0:32]
        assert source.read_range(32, 32) == payload[32:64]
        assert source.read_range(64, 32) == payload[64:96]
        assert source.read_range(128, 64) == payload[128:192]
        # A miss falls through to a direct read.
        assert source.read_range(1024, 16) == payload[1024:1040]
    physical = sorted(inner.reads)
    assert physical == [(0, 64), (64, 32), (128, 64), (1024, 16)]
    # Consumed trace is per request, exactly what a sync reader would log.
    assert source.trace == [(0, 32), (32, 32), (64, 32), (128, 64), (1024, 16)]
    assert source.pending_bytes == 0


def test_prefetch_source_without_prefetcher_is_passthrough():
    payload = b"0123456789" * 100
    inner = _CountingSource(payload)
    source = PrefetchSource(inner, None)
    assert source.prime([(0, 100)]) == 0
    assert source.read_range(10, 5) == payload[10:15]
    assert inner.reads == [(10, 5)]
    # The nothing-primed fast path keeps both ledgers of a miss.
    assert source.trace == [(10, 5)]
    assert source.bytes_fetched == 5


def test_prime_on_closed_prefetcher_degrades_to_sync_reads():
    """Regression: ``prime()`` against a prefetcher another request already
    closed must not propagate the executor's shutdown ``RuntimeError`` —
    the source degrades to direct synchronous reads, bitwise-identical."""
    payload = bytes(range(256)) * 4
    inner = _CountingSource(payload)
    prefetcher = Prefetcher(depth=2)
    prefetcher.close()
    source = PrefetchSource(inner, prefetcher)
    assert source.prime([(0, 64), (128, 64)]) == 0  # no crash, nothing primed
    assert source.read_range(0, 64) == payload[0:64]
    assert source.read_range(128, 64) == payload[128:192]
    assert inner.reads == [(0, 64), (128, 64)]
    # Physical accounting covers exactly the direct reads — no phantom
    # prime-time charges for ranges that were never scheduled.
    assert source.bytes_fetched == 128


def test_cancelled_primed_read_degrades_to_sync_read():
    """Regression: a primed range whose future was cancelled by a mid-flight
    ``Prefetcher.close`` must be re-read directly (bitwise-identical), with
    the prime-time charge refunded so ``bytes_fetched`` stays honest."""
    payload = bytes(range(256)) * 4
    gate = threading.Event()
    started = threading.Event()

    class _GatedSource:
        def __init__(self, blob):
            self._inner = BytesSource(blob)
            self.size = self._inner.size

        def read_range(self, offset, length):
            started.set()
            gate.wait(timeout=30)
            return self._inner.read_range(offset, length)

    inner = _GatedSource(payload)
    prefetcher = Prefetcher(depth=1)
    source = PrefetchSource(inner, prefetcher)
    # One worker: the first primed read occupies it (blocked on the gate),
    # the second stays queued and is cancelled by close().
    assert source.prime([(0, 64), (128, 64)]) == 128
    assert started.wait(timeout=30)
    prefetcher.close()
    gate.set()
    assert source.read_range(0, 64) == payload[0:64]  # in-flight: completes
    assert source.read_range(128, 64) == payload[128:192]  # cancelled: direct
    assert source.trace == [(0, 64), (128, 64)]
    # 128 primed, 64 refunded for the cancelled interval, 64 re-read direct.
    assert source.bytes_fetched == 128


def test_failed_direct_read_is_not_charged():
    """Regression: a miss whose direct read raises must not inflate
    ``bytes_fetched`` — the charge lands only after the read succeeds."""

    class _FailingSource:
        size = 1024

        def read_range(self, offset, length):
            raise OSError("injected")

    source = PrefetchSource(_FailingSource(), None)
    with pytest.raises(OSError):
        source.read_range(0, 64)
    assert source.bytes_fetched == 0


def test_file_source_range_reads(tmp_path):
    blob = IPComp(error_bound=1e-4, relative=True).compress(_field((16, 12), 2))
    path = tmp_path / "s.ipc"
    path.write_bytes(blob)
    with FileSource(path) as source:
        assert source.size == len(blob)
        assert source.read_range(4, 10) == blob[4:14]
        with pytest.raises(Exception):
            source.read_range(len(blob) - 2, 5)
    retriever = ProgressiveRetriever(FileSource(path))
    out = retriever.retrieve(error_bound=retriever.header.error_bound)
    ref = ProgressiveRetriever(blob).retrieve(
        error_bound=retriever.header.error_bound
    )
    assert out.data.tobytes() == ref.data.tobytes()
    assert out.bytes_loaded == ref.bytes_loaded


# ------------------------------------------------- byte-identity matrix: v1/v2


@pytest.fixture(scope="module")
def v1_blob() -> bytes:
    return (DATA / "v1_stream.ipc").read_bytes()


def _v1_container(tmp_path, v1_blob) -> Path:
    """A two-shard manifest-v1 container wrapping the pinned v1 stream twice.

    Both shards decode the same pinned payload; the field is their stack
    along axis 0 — enough structure to drive the multi-shard (and pool)
    paths against genuine version-1 bytes.
    """
    header_shape = np.load(DATA / "v1_expected.npy").shape
    n0 = header_shape[0]
    manifest = {
        "format": "repro-chunked-dataset",
        "version": 1,
        "shape": [2 * n0, header_shape[1]],
        "dtype": "float64",
        "error_bound": 3.292730916654546e-05,
        "method": "cubic",
        "prefix_bits": 2,
        "backend": "zlib",
        "shards": [
            {"name": "shard-0000", "slices": [[0, n0], [0, header_shape[1]]]},
            {"name": "shard-0001", "slices": [[n0, 2 * n0], [0, header_shape[1]]]},
        ],
    }
    path = tmp_path / "v1.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("shard-0000", v1_blob)
        writer.add_block("shard-0001", v1_blob)
        writer.add_block("manifest", json.dumps(manifest).encode())
    return path


def test_identity_matrix_streams(tmp_path, v1_blob):
    """{v1, v2} single streams × {serial, prefetch} are bitwise-identical."""
    v2_blob = IPComp(error_bound=1e-5, relative=True).compress(_field((20, 18), 3))
    for label, blob in (("v1", v1_blob), ("v2", v2_blob)):
        path = tmp_path / f"{label}.ipc"
        path.write_bytes(blob)
        header_version = struct.unpack_from("<HI", blob, 4)[0]
        assert header_version == (1 if label == "v1" else 2)
        serial = ProgressiveRetriever(blob)
        eb = serial.header.error_bound
        expected = serial.retrieve(error_bound=eb)
        from repro.retrieval.engine import open_stream_source

        source = open_stream_source(path, prefetch=4)
        try:
            prefetched = ProgressiveRetriever(source).retrieve(error_bound=eb)
        finally:
            source.close()
        assert prefetched.data.tobytes() == expected.data.tobytes()
        assert prefetched.bytes_loaded == expected.bytes_loaded
    # The pinned decode stays byte-identical to the recorded expectation.
    pinned = np.load(DATA / "v1_expected.npy")
    out = ProgressiveRetriever(v1_blob)
    result = out.retrieve(error_bound=out.header.error_bound)
    assert result.data.tobytes() == pinned.tobytes()


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_identity_matrix_containers(tmp_path, v1_blob, version):
    """{v1, v2} containers × {serial, prefetch, pool} are bitwise-identical."""
    if version == "v1":
        path = _v1_container(tmp_path, v1_blob)
    else:
        path = tmp_path / "v2.rprc"
        ChunkedDataset.write(
            path, _field((24, 14, 10), 4), error_bound=1e-5, relative=True,
            n_blocks=4, workers=0,
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
    with ChunkedDataset(path, workers=2) as dataset:
        assert dataset.read().data.tobytes() == serial_full.data.tobytes()
        part = dataset.read(error_bound=eb * 16)
        assert part.data.tobytes() == serial_part.data.tobytes()
        assert part.bytes_loaded == serial_part.bytes_loaded
        assert sorted(part.ranges) == sorted(serial_part.ranges)


def test_v1_container_decodes_the_pinned_payload(tmp_path, v1_blob):
    pinned = np.load(DATA / "v1_expected.npy")
    path = _v1_container(tmp_path, v1_blob)
    with ChunkedDataset(path, workers=2) as dataset:
        out = dataset.read()
    assert out.data.tobytes() == np.concatenate([pinned, pinned]).tobytes()


# ------------------------------------------------------------- pool decode


def _write_and_read(path, field, workers):
    """One pooled-or-not write + full and ROI reads; everything comparable."""
    ChunkedDataset.write(
        path, field, error_bound=1e-5, relative=True, n_blocks=4, workers=workers
    )
    with ChunkedDataset(path, workers=workers) as dataset:
        eb = dataset.absolute_bound
        reads = [
            dataset.read(error_bound=eb * 16),
            dataset.read(error_bound=eb * 16, roi=(slice(2, 14),)),
        ]
    return path.read_bytes(), [
        (r.data.tobytes(), r.bytes_loaded, sorted(r.ranges), r.shards) for r in reads
    ]


def test_kept_pool_paths_build_a_pool_and_match_in_process(tmp_path, monkeypatch):
    """Write and read (full, ROI) really cross the process boundary with
    ``workers=2`` — and produce the in-process bytes, ranges and counts."""
    from repro.parallel import poolmap

    built = []
    real_pool = poolmap.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        built.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(poolmap, "ProcessPoolExecutor", counting_pool)
    field = _field((24, 14, 10), 4)
    assert _write_and_read(tmp_path / "serial.rprc", field, 0) == _write_and_read(
        tmp_path / "pooled.rprc", field, 2
    )
    assert len(built) == 3  # one per pooled op: write, full read, ROI read


@pytest.mark.parametrize("direction", ["write", "read"])
def test_no_shared_memory_runs_in_process(tmp_path, monkeypatch, direction):
    """Shared memory or in-process: without a segment no pool is built."""
    from repro.parallel import poolmap

    def no_pool(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("no segment, so no pool may be constructed")

    field = _field((24, 14, 10), 4)
    serial = _write_and_read(tmp_path / "serial.rprc", field, 0)
    monkeypatch.setattr(poolmap, "create_segment", lambda nbytes: None)
    monkeypatch.setattr(poolmap, "ProcessPoolExecutor", no_pool)
    if direction == "write":
        ChunkedDataset.write(
            tmp_path / "w.rprc", field, error_bound=1e-5, relative=True,
            n_blocks=4, workers=2,
        )
        assert (tmp_path / "w.rprc").read_bytes() == serial[0]
    else:
        (tmp_path / "r.rprc").write_bytes(serial[0])
        with ChunkedDataset(tmp_path / "r.rprc", workers=2) as dataset:
            eb = dataset.absolute_bound
            for roi, expected in zip((None, (slice(2, 14),)), serial[1]):
                r = dataset.read(error_bound=eb * 16, roi=roi)
                assert (
                    r.data.tobytes(), r.bytes_loaded, sorted(r.ranges), r.shards
                ) == expected


def test_decompress_rejects_partial_coverage(smooth_3d):
    from repro.errors import ConfigurationError

    comp = BlockParallelCompressor(
        error_bound=1e-4, relative=True, n_blocks=4, workers=2
    )
    blocks = comp.compress(smooth_3d)
    with pytest.raises(ConfigurationError):
        comp.decompress(blocks[:-1], smooth_3d.shape)


def test_pool_worker_errors_propagate(tmp_path):
    """A corrupt shard is a real error on the pool path, not a fallback."""
    from repro.errors import ReproError
    from repro.io import BlockContainerReader

    field = _field((16, 10), 5)
    path = tmp_path / "x.rprc"
    ChunkedDataset.write(path, field, error_bound=1e-4, n_blocks=2, workers=0)
    with BlockContainerReader(path) as reader:
        offset = int(reader.directory["shard-0001"]["offset"])
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(b"IPC1 garbage that is not a stream")
    with ChunkedDataset(path, workers=2) as dataset:
        with pytest.raises(ReproError):
            dataset.read()


# -------------------------------------------------------- engine speculation


def test_refine_speculation_preserves_accounting(tmp_path):
    field = _field((24, 12, 10), 6)
    path = tmp_path / "s.rprc"
    manifest = ChunkedDataset.write(
        path, field, error_bound=1e-6, relative=True, n_blocks=4, workers=0
    )
    eb = manifest["error_bound"]
    ladder = (1024, 64, 8, 1)
    with ChunkedDataset(path) as dataset:
        sync = [dataset.refine(error_bound=eb * k) for k in ladder]
    with ChunkedDataset(path, prefetch=4) as dataset:
        spec = [dataset.refine(error_bound=eb * k) for k in ladder]
        # Speculation physically fetched ahead, but reported accounting is
        # consumption-based: identical to the synchronous ladder.
        for s, p in zip(sync, spec):
            assert p.data.tobytes() == s.data.tobytes()
            assert p.bytes_loaded == s.bytes_loaded
            assert p.ranges == s.ranges
            assert p.cumulative_bytes == s.cumulative_bytes
        seen = set()
        for p in spec:
            assert not (seen & set(p.ranges))
            seen |= set(p.ranges)


def test_engine_plan_matches_read_bytes(tmp_path):
    field = _field((20, 14), 7)
    path = tmp_path / "p.rprc"
    manifest = ChunkedDataset.write(
        path, field, error_bound=1e-5, relative=True, n_blocks=3, workers=0
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


# ------------------------------------------------------------ profile knobs


def test_profile_prefetch_workers_are_runtime_only():
    profile = CodecProfile(prefetch=8, workers=4)
    assert CodecProfile.from_json(profile.to_json()) == profile
    manifest_form = profile.to_json(runtime=False)
    assert "prefetch" not in manifest_form and "workers" not in manifest_form
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        CodecProfile(prefetch=-1)
    with pytest.raises(ConfigurationError):
        CodecProfile(workers="two")
