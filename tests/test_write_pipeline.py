"""The write window and what a failed write leaves behind.

``BlockParallelCompressor.compress_into`` — every write's one path —
compresses the slabs two at a time (the calling thread one, a
``repro-write`` thread the next), and the calling thread writes finished
streams in slab order.  These tests pin that the window
changes nothing but the time: the streams are the serial loop's, at most two
slabs are in flight, a failure in any slab propagates with no thread left
behind, and a failed write leaves the archive it was replacing as it was.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import CodecProfile, IPComp
from repro.errors import ConfigurationError
from repro.io import BlockContainerReader, BlockContainerWriter, ChunkedDataset
from repro.parallel import BlockParallelCompressor, block_slices

PROFILE = CodecProfile(error_bound=1e-3, relative=False)


class _Recorder:
    """A container writer that keeps what it is given, in order."""

    def __init__(self, events=None, fail_at=None):
        self.blocks = []
        self.events = events if events is not None else []
        self.fail_at = fail_at

    def add_block(self, name, data, metadata=None):
        if len(self.blocks) == self.fail_at:
            raise OSError("disk full")
        self.events.append(("add", len(self.blocks)))
        self.blocks.append((name, bytes(data), metadata))


def _field(rng, rows=16):
    x = np.linspace(0.0, 3.0, rows)[:, None, None]
    y = np.linspace(0.0, 2.0, 12)[None, :, None]
    z = np.linspace(0.0, 1.0, 10)[None, None, :]
    return np.sin(x + y) * np.cos(z) + 0.01 * rng.standard_normal((rows, 12, 10))


def _write_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-write")]


def _serial_streams(field, n_blocks):
    return [
        IPComp(profile=PROFILE).compress(np.ascontiguousarray(field[slc]))
        for slc in block_slices(field.shape, n_blocks)
    ]


@pytest.mark.parametrize("rows, n_blocks", [(16, 1), (16, 2), (16, 3), (16, 16), (5, 9)])
def test_the_window_writes_the_serial_streams(local_rng, rows, n_blocks):
    field = _field(local_rng, rows)
    recorder = _Recorder()
    extents = BlockParallelCompressor(PROFILE, n_blocks).compress_into(recorder, field)
    serial = _serial_streams(field, n_blocks)
    assert len(serial) == min(rows, n_blocks) == len(extents)
    assert [blob for _, blob, _ in recorder.blocks] == serial
    assert [name for name, _, _ in recorder.blocks] == [
        f"shard-{k:04d}" for k in range(len(serial))
    ]
    assert [meta["slices"] for _, _, meta in recorder.blocks] == extents
    assert not _write_threads()


def test_at_most_two_slabs_are_in_flight(local_rng, monkeypatch):
    field = _field(local_rng)
    slabs = block_slices(field.shape, 8)
    index_of = {np.ascontiguousarray(field[slc]).tobytes(): k for k, slc in enumerate(slabs)}
    events, lock = [], threading.Lock()
    running, peak = [0], [0]
    compress = IPComp.compress

    def counted(self, data):
        with lock:
            events.append(("start", index_of[data.tobytes()]))
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            time.sleep(0.02)  # long enough for the other slot to fill
            return compress(self, data)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(IPComp, "compress", counted)
    recorder = _Recorder(events)
    BlockParallelCompressor(PROFILE, 8).compress_into(recorder, field)
    assert peak[0] == 2
    # Slab k + 2 starts only once slab k's stream has been written.
    for k in range(len(slabs) - 2):
        assert events.index(("start", k + 2)) > events.index(("add", k))
    assert [blob for _, blob, _ in recorder.blocks] == _serial_streams(field, 8)


def test_the_window_under_a_short_switch_interval(local_rng):
    """The two threads share the kernel object and the field, and the C
    kernel keeps nothing between calls: switching every few microseconds
    must not move a byte."""
    field = _field(local_rng, rows=32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            recorder = _Recorder()
            BlockParallelCompressor(PROFILE, 16).compress_into(recorder, field)
            assert [blob for _, blob, _ in recorder.blocks] == _serial_streams(field, 16)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing", [0, 1, 5, 7])
def test_a_failing_slab_propagates_and_leaves_no_thread(local_rng, monkeypatch, failing):
    field = _field(local_rng)
    bad = np.ascontiguousarray(field[block_slices(field.shape, 8)[failing]]).tobytes()
    compress = IPComp.compress

    def flaky(self, data):
        if data.tobytes() == bad:
            raise RuntimeError(f"slab {failing} failed")
        return compress(self, data)

    monkeypatch.setattr(IPComp, "compress", flaky)
    recorder = _Recorder()
    with pytest.raises(RuntimeError, match=f"slab {failing} failed"):
        BlockParallelCompressor(PROFILE, 8).compress_into(recorder, field)
    assert len(recorder.blocks) == failing
    assert not _write_threads()


def test_a_failing_writer_stops_the_window(local_rng):
    field = _field(local_rng)
    with pytest.raises(OSError, match="disk full"):
        BlockParallelCompressor(PROFILE, 8).compress_into(_Recorder(fail_at=3), field)
    assert not _write_threads()


# --------------------------------------------- a failed write keeps the old archive


def _archive(tmp_path, rng):
    path = tmp_path / "field.rprc"
    ChunkedDataset.write(path, _field(rng), error_bound=1e-3, relative=False, n_blocks=4)
    return path, path.read_bytes()


def _nan_in_slab_2(rng):
    field = _field(rng)
    field[block_slices(field.shape, 4)[2]][1, 2, 3] = np.nan
    return field


def test_a_failed_slab_keeps_the_previous_archive(tmp_path, local_rng):
    path, before = _archive(tmp_path, local_rng)
    with ChunkedDataset(path) as dataset:
        expected = dataset.read().data.tobytes()
    with pytest.raises(ConfigurationError, match="finite input values"):
        ChunkedDataset.write(
            path, _nan_in_slab_2(local_rng), error_bound=1e-3, relative=False, n_blocks=4
        )
    assert not _write_threads()
    assert path.read_bytes() == before
    with ChunkedDataset(path) as dataset:
        assert dataset.read().data.tobytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no partial file left


def test_a_rejected_dtype_keeps_the_previous_archive(tmp_path, local_rng):
    """An integer field, and a 0-d field (no axis to cut slabs along), are
    refused before any file opens and leave the old archive readable."""
    path, before = _archive(tmp_path, local_rng)
    with ChunkedDataset(path) as dataset:
        expected = dataset.read().data.tobytes()
    rejected = [
        (np.arange(640, dtype=np.int32).reshape(16, 4, 10), "floating-point"),
        (np.array(3.0), "at least one axis"),
    ]
    for field, reason in rejected:
        with pytest.raises(ConfigurationError, match=reason):
            ChunkedDataset.write(path, field, error_bound=1e-3, relative=False, n_blocks=4)
        assert path.read_bytes() == before
        with ChunkedDataset(path) as dataset:
            assert dataset.read().data.tobytes() == expected
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_a_container_appears_whole_or_not_at_all(tmp_path):
    path = tmp_path / "store.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("a", b"old")
    with pytest.raises(RuntimeError):
        with BlockContainerWriter(path) as writer:
            writer.add_block("a", b"new")
            with BlockContainerReader(path) as reader:
                assert reader.read_block("a") == b"old"  # not yet replaced
            raise RuntimeError("interrupted")
    with BlockContainerReader(path) as reader:
        assert reader.read_block("a") == b"old"
    with pytest.raises(RuntimeError):
        with BlockContainerWriter(tmp_path / "new.rprc") as writer:
            raise RuntimeError("interrupted")
    assert [p.name for p in tmp_path.iterdir()] == ["store.rprc"]


# ---------------------------------------- a non-finite field is not the bound's fault


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_field_is_named_not_the_bound(tmp_path, local_rng, value):
    field = _field(local_rng)
    field[3, 4, 5] = value
    with pytest.raises(ConfigurationError, match="^a range-relative error bound requires finite input values"):
        ChunkedDataset.write(tmp_path / "f.rprc", field, error_bound=1e-3, relative=True)
    with pytest.raises(ConfigurationError, match="^IPComp requires finite input values$"):
        ChunkedDataset.write(tmp_path / "f.rprc", field, error_bound=1e-3, relative=False)
    assert not list(tmp_path.iterdir())


def test_a_non_finite_bound_is_still_the_bound(tmp_path, local_rng):
    with pytest.raises(ConfigurationError, match="^error_bound must be a positive finite number$"):
        ChunkedDataset.write(tmp_path / "f.rprc", _field(local_rng), error_bound=np.nan, relative=True)
