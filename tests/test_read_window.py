"""The read window changes nothing but the time.

Every ``read`` and ``refine`` of a local dataset decodes its shards two at
a time — the calling thread one, a ``repro-read`` helper thread the next
one left — each straight into its slab of the answer.  These tests pin what must not
move: the answer, the ``ranges`` (shard order, one entry per block),
``bytes_loaded`` and ``error_bound`` are those of the shards decoded one by
one, also with the interpreter switching threads every microsecond; no
thread outlives a request, a one-shard or remote request starts none
(a remote decode already overlaps its round trips), a remote read loads
first a shard whose primed ranges have landed, and a failing
shard raises the read's error and leaves every ``refine`` retriever
consistent, so the repeated call finishes the job.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from conftest import cumsum_field
from repro import ChunkedDataset
from repro.core.progressive import ProgressiveRetriever
from repro.errors import StreamFormatError
from repro.io import BlockContainerReader

#: Along axis 0 of the (40, 18, 14) field cut into 8 shards of 5 rows: the
#: first ROI cuts every shard it touches, the second only its end shards,
#: the third lies inside one shard.
ROIS = [
    None,
    (slice(3, 27), slice(2, 15)),
    (slice(7, 33),),
]
ONE_SHARD = (slice(11, 14), slice(None), slice(3, 9))
LADDER = [(1024, None), (64, ROIS[1]), (8, None), (1, None)]


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("window") / "w.rprc"
    ChunkedDataset.write(
        path, cumsum_field((40, 18, 14), 21), error_bound=1e-5, relative=True, n_blocks=8
    )
    return path


@pytest.fixture
def switching():
    """Switch threads every microsecond for the test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class _OneByOne:
    """The oracle: each selected shard decoded alone by its own retriever,
    in shard order — fresh ones for a read, kept ones for a refine."""

    def __init__(self, path):
        with BlockContainerReader(path) as reader:
            self.blobs = {name: reader.read_block(name) for name in reader.block_names()}
        self.retrievers = {}

    def request(self, dataset, target, roi, stateful):
        region, shards = dataset.select(roi)
        field = np.full(dataset.shape, np.nan, dtype=dataset.dtype)
        ranges, achieved = [], 0.0
        for shard in shards:
            retriever = self.retrievers.get(shard.name) if stateful else None
            # A new retriever's trace opens with its header parse, which the
            # request that made it is charged.
            start = 0 if retriever is None else len(retriever.store.trace)
            if retriever is None:
                retriever = ProgressiveRetriever(self.blobs[shard.name])
                if stateful:
                    self.retrievers[shard.name] = retriever
            result = retriever.retrieve(error_bound=target)
            field[shard.slices] = result.data
            ranges.extend((shard.name, offset, n) for offset, n in retriever.store.trace[start:])
            achieved = max(achieved, result.error_bound)
        return field[region], ranges, sum(n for _, _, n in ranges), achieved


def _assert_same(result, expected):
    data, ranges, nbytes, achieved = expected
    assert result.data.dtype == data.dtype
    assert result.data.tobytes() == data.tobytes()
    assert result.ranges == ranges
    assert result.bytes_loaded == nbytes
    assert result.error_bound == achieved


@pytest.mark.parametrize("roi", ROIS + [ONE_SHARD])
def test_a_read_is_the_shards_decoded_one_by_one(archive, switching, roi):
    oracle = _OneByOne(archive)
    with ChunkedDataset(archive) as dataset:
        for _ in range(3):
            result = dataset.read(roi=roi)
            _assert_same(
                result, oracle.request(dataset, dataset.absolute_bound, roi, stateful=False)
            )


def test_every_refine_rung_is_the_shards_refined_one_by_one(archive, switching):
    oracle = _OneByOne(archive)
    with ChunkedDataset(archive) as dataset:
        eb = dataset.absolute_bound
        cumulative = 0
        for factor, roi in LADDER:
            result = dataset.refine(factor * eb, roi=roi)
            _assert_same(result, oracle.request(dataset, factor * eb, roi, stateful=True))
            cumulative += result.bytes_loaded
            assert result.cumulative_bytes == cumulative


def test_no_thread_outlives_a_request(archive):
    before = set(threading.enumerate())
    dataset = ChunkedDataset(archive)
    try:
        dataset.read()
        assert set(threading.enumerate()) == before
        dataset.read(roi=ROIS[1])
        assert set(threading.enumerate()) == before
        for factor, roi in LADDER:
            dataset.refine(factor * dataset.absolute_bound, roi=roi)
            assert set(threading.enumerate()) == before
    finally:
        dataset.close()
    assert set(threading.enumerate()) == before


def test_a_one_shard_request_starts_no_thread(archive, monkeypatch):
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    with ChunkedDataset(archive) as dataset:
        assert len(dataset.select(ONE_SHARD)[1]) == 1
        dataset.read(roi=ONE_SHARD)
        dataset.refine(64 * dataset.absolute_bound, roi=ONE_SHARD)
        dataset.refine(roi=ONE_SHARD)
        assert started == []
        # Many shards: at most the one helper.
        dataset.read()
        dataset.refine()
    assert len(started) <= 2
    assert all(name.startswith("repro-read") for name in started)


def test_a_remote_read_decodes_on_the_calling_thread(archive, monkeypatch):
    """Its decode already overlaps the round trips: no helper, multiplexed
    (``prefetch > 0``) or serial (``prefetch=0``), and the local bytes."""
    from repro.io.aio import EventLoopThread
    from repro.io.rangeserver import RangeServer

    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        return start(thread)

    with ChunkedDataset(archive) as dataset:
        local = dataset.read(roi=ROIS[2])
    try:
        with RangeServer(archive.parent) as server:
            monkeypatch.setattr(threading.Thread, "start", counted)
            for prefetch in (4, 0):
                url = server.url_for(archive.name)
                with ChunkedDataset(url, prefetch=prefetch) as dataset:
                    remote = dataset.read(roi=ROIS[2])
                assert remote.data.tobytes() == local.data.tobytes()
                assert remote.ranges == local.ranges
    finally:
        EventLoopThread.shared().close()  # re-created on demand
    assert not [name for name in started if name.startswith("repro-read")]


def test_a_remote_read_loads_first_a_shard_whose_ranges_have_landed(archive, monkeypatch):
    """The streaming handoff: while shard 0's primed ranges are held on the
    wire, shard 1 is loaded first, then shard 0, then the rest in order —
    and the answer, ``ranges`` and ``bytes_loaded`` are the local read's."""
    from repro.io.aio import EventLoopThread
    from repro.io.rangeserver import RangeServer
    from repro.retrieval.engine import RetrievalEngine
    from repro.retrieval.prefetch import PrefetchSource

    towers = {}  # PrefetchSource -> its shard's name
    loaded = []  # shard names, in load order
    open_sources = RetrievalEngine.open_sources
    load = ProgressiveRetriever.load

    def recorded(self, names, wrap=None):
        made = open_sources(self, names, wrap)
        towers.update(zip(made, names))
        return made

    def recording(self, plan):
        loaded.append(towers[self.store.source])
        return load(self, plan)

    with ChunkedDataset(archive) as dataset:
        names = [shard.name for shard in dataset.shards]
        local = dataset.read()
    # Shard 0 reports a range in flight until another shard has loaded;
    # every other shard reports its ranges landed (its reads still wait
    # for them, so only the order can move).
    held = property(lambda self: int(towers.get(self) == names[0] and not loaded))
    try:
        with RangeServer(archive.parent) as server:
            monkeypatch.setattr(RetrievalEngine, "open_sources", recorded)
            monkeypatch.setattr(ProgressiveRetriever, "load", recording)
            monkeypatch.setattr(PrefetchSource, "inflight", held)
            with ChunkedDataset(server.url_for(archive.name), prefetch=4) as dataset:
                remote = dataset.read()
    finally:
        EventLoopThread.shared().close()  # re-created on demand
    assert loaded == [names[1], names[0], *names[2:]]
    assert remote.data.tobytes() == local.data.tobytes()
    assert remote.ranges == local.ranges
    assert remote.bytes_loaded == local.bytes_loaded


# --------------------------------------------------------------- failures


class _Swappable:
    """A byte-range source over whichever bytes ``blob`` holds now."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.size = len(blob)

    def read_range(self, offset: int, length: int) -> bytes:
        return self.blob[offset : offset + length]


def _corrupted(path, name, coarse, fine):
    """``path``'s bytes with one deflated plane block of shard ``name``
    overwritten: one the ``fine`` bound loads and the ``coarse`` one not."""
    with ChunkedDataset(path) as dataset:
        pinned = dataset.pinned_shard(name)
        before = pinned.plan(coarse).loading_plan.keep
        after = pinned.plan(fine).loading_plan.keep
    with BlockContainerReader(path) as reader:
        base = int(reader.directory[name]["offset"])
    for enc in pinned.header.levels:
        for plane in range(before.get(enc.level, 0), after.get(enc.level, 0)):
            if enc.coder_for_plane(plane) == "zlib":
                offset, size = pinned.block_extent(enc.level, plane)
                blob = bytearray(path.read_bytes())
                blob[base + offset : base + offset + size] = b"\xff" * size
                return bytes(blob)
    raise AssertionError(f"no deflated plane of {name} between the two bounds")


def test_a_corrupt_shard_fails_the_read_and_a_repeated_refine_finishes(archive, tmp_path):
    with ChunkedDataset(archive) as dataset:
        eb = dataset.absolute_bound
        names = [shard.name for shard in dataset.shards]
        clean = dataset.read()
    broken = tmp_path / "broken.rprc"
    coarse = 2**16 * eb  # coarse enough to leave deflated planes unloaded
    for name in (names[0], names[3], names[-1]):
        corrupt = _corrupted(archive, name, coarse, eb)
        broken.write_bytes(corrupt)
        with ChunkedDataset(broken) as dataset:
            with pytest.raises(StreamFormatError):
                dataset.read()
        source = _Swappable(corrupt)
        before = set(threading.enumerate())
        with ChunkedDataset("swap.rprc", source=source) as dataset:
            dataset.refine(coarse)
            with pytest.raises(StreamFormatError):
                dataset.refine()
            assert set(threading.enumerate()) == before
            source.blob = archive.read_bytes()
            repeated = dataset.refine()
        assert repeated.data.tobytes() == clean.data.tobytes(), name
        assert repeated.error_bound == clean.error_bound
