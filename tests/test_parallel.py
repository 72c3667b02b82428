"""Tests of the domain-decomposition parallel substrate.

Sharded round trips go through the one sharded codec:
``ChunkedDataset.write`` (the block compressor's write transport) and
``ChunkedDataset.read``.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import CodecProfile, IPComp
from repro.analysis import max_error
from repro.errors import ConfigurationError, StreamFormatError
from repro.io import BlockContainerReader, BlockContainerWriter, ChunkedDataset
from repro.parallel import (
    BlockParallelCompressor,
    block_slices,
    normalize_roi,
    poolmap,
    ranges_to_slices,
    slices_intersect,
    slices_to_ranges,
)
from repro.retrieval.engine import assemble


def _pool_usable() -> bool:
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


# Worker helpers must be module-level to be picklable.
def _fail_in_child(payload):
    parent_pid, value = payload
    if os.getpid() != parent_pid:
        raise RuntimeError("worker raised on purpose")
    return value


def _die_in_child(payload):
    parent_pid, value = payload
    if os.getpid() != parent_pid:
        os._exit(13)  # kill the worker process: breaks the pool, no exception
    return value


def test_block_slices_slab_decomposition():
    slabs = block_slices((20, 6, 6), 4)
    assert len(slabs) == 4
    covered = np.zeros((20, 6, 6), dtype=int)
    for slc in slabs:
        covered[slc] += 1
    assert np.all(covered == 1)


def test_block_slices_more_blocks_than_rows():
    slabs = block_slices((3, 5), 10)
    assert len(slabs) == 3


def _written(path, field, **options):
    """``ChunkedDataset.write`` with the tests' defaults; returns the manifest."""
    options = {"error_bound": 1e-5, "relative": True, "workers": 0, **options}
    return ChunkedDataset.write(path, field, **options)


def test_serial_block_compression_roundtrip(tmp_path, smooth_3d):
    manifest = _written(tmp_path / "f.rprc", smooth_3d, n_blocks=3)
    assert len(manifest["shards"]) == 3
    with ChunkedDataset(tmp_path / "f.rprc") as dataset:
        restored = dataset.read().data
    eb = 1e-5 * (smooth_3d.max() - smooth_3d.min())
    assert max_error(smooth_3d, restored) <= eb * (1 + 1e-9)


def test_block_compression_preserves_global_relative_bound(tmp_path, smooth_3d):
    """Per-block relative bounds would differ; the global bound must be used."""
    _written(tmp_path / "f.rprc", smooth_3d, error_bound=1e-4, n_blocks=4)
    with ChunkedDataset(tmp_path / "f.rprc") as dataset:
        restored = dataset.read().data
    global_eb = 1e-4 * (smooth_3d.max() - smooth_3d.min())
    assert max_error(smooth_3d, restored) <= global_eb * (1 + 1e-9)


def test_block_progressive_retrieval(tmp_path, smooth_3d):
    _written(tmp_path / "f.rprc", smooth_3d, error_bound=1e-6, n_blocks=2)
    eb = 1e-6 * (smooth_3d.max() - smooth_3d.min())
    with ChunkedDataset(tmp_path / "f.rprc") as dataset:
        coarse = dataset.read(error_bound=eb * 128).data
    assert max_error(smooth_3d, coarse) <= eb * 128 * (1 + 1e-9)


def test_parallel_workers_match_serial_results(tmp_path, smooth_3d):
    _written(tmp_path / "serial.rprc", smooth_3d, n_blocks=2, workers=0)
    _written(tmp_path / "pooled.rprc", smooth_3d, n_blocks=2, workers=2)
    # Files must be byte-identical regardless of the execution mode.
    assert (tmp_path / "serial.rprc").read_bytes() == (
        tmp_path / "pooled.rprc"
    ).read_bytes()


def test_compress_into_and_blocks_from_entries(tmp_path, smooth_3d):
    """The pooled transport writes one ``shard-NNNN`` entry per slab, each
    carrying the slab extents it returns; the entries alone rebuild the
    field within the global bound."""
    resolved = CodecProfile(error_bound=1e-5, relative=True).resolve(smooth_3d)
    comp = BlockParallelCompressor(resolved, 3, 2)
    path = tmp_path / "slabs.rprc"
    with BlockContainerWriter(path) as writer:
        extents = comp.compress_into(writer, smooth_3d)
    with BlockContainerReader(path) as reader:
        names = sorted(n for n in reader.block_names() if n.startswith("shard-"))
        assert names == ["shard-0000", "shard-0001", "shard-0002"]
        assert [reader.metadata(n)["slices"] for n in names] == extents
        pieces = [
            (ranges_to_slices(reader.metadata(n)["slices"]),
             IPComp().decompress(reader.read_block(n)))
            for n in names
        ]
    whole = tuple(slice(0, s) for s in smooth_3d.shape)
    restored = assemble(pieces, whole, smooth_3d.dtype)
    eb = 1e-5 * (smooth_3d.max() - smooth_3d.min())
    assert max_error(smooth_3d, restored) <= eb * (1 + 1e-9)


def test_blocks_from_entries_requires_slab_metadata(tmp_path, smooth_3d):
    """A shard whose slab extents are gone from the manifest cannot be
    placed: opening the dataset is a format error."""
    full = tmp_path / "full.rprc"
    manifest = _written(full, smooth_3d, n_blocks=2, workers=2)
    del manifest["shards"][1]["slices"]
    path = tmp_path / "bare.rprc"
    with BlockContainerReader(full) as reader, BlockContainerWriter(path) as writer:
        for shard in manifest["shards"]:
            name = shard["name"]
            writer.add_block(name, reader.read_block(name), reader.metadata(name))
        writer.add_block("manifest", json.dumps(manifest).encode())
    with pytest.raises(StreamFormatError):
        ChunkedDataset(path)


def test_reassemble_checks_coverage():
    """The one scatter rejects pieces that leave part of the region unset."""
    pieces = [((slice(0, 2), slice(0, 4)), np.ones((2, 4)))]
    with pytest.raises(StreamFormatError, match="cover"):
        assemble(pieces, (slice(0, 4), slice(0, 4)), np.float64)
    # Covering the ROI is what counts, not the whole domain.
    assert assemble(pieces, (slice(0, 2), slice(1, 3)), np.float64).shape == (2, 2)


def test_invalid_configuration():
    absolute = CodecProfile(error_bound=1e-3, relative=False)
    with pytest.raises(ConfigurationError):
        BlockParallelCompressor(absolute, 0, 0)
    # A still-relative profile would be resolved slab by slab, breaking the
    # global bound: the transport refuses it.
    with pytest.raises(ConfigurationError, match="absolute"):
        BlockParallelCompressor(CodecProfile(relative=True), 2, 0)


@pytest.mark.parametrize(
    "options",
    [{"workers": -1}, {"workers": 1.5}, {"workers": True}, {"n_blocks": 0},
     {"n_blocks": 2.5}],
)
def test_write_rejects_bad_runtime_knobs(tmp_path, smooth_3d, options):
    """The write side's knobs follow the read side's rule: a configuration
    error before any file exists, not a silent in-process run."""
    path = tmp_path / "never.rprc"
    with pytest.raises(ConfigurationError):
        _written(path, smooth_3d, **{"n_blocks": 2, **options})
    assert not path.exists()


# ------------------------------------------------ imap_fallback error paths


@pytest.mark.skipif(not _pool_usable(), reason="process pools unavailable here")
def test_worker_exception_propagates():
    """A worker-raised exception is a real error, not a cue to fall back."""
    parent = os.getpid()
    with pytest.raises(RuntimeError, match="worker raised on purpose"):
        list(poolmap.imap_fallback(_fail_in_child, [(parent, 1), (parent, 2)], 2))


@pytest.mark.skipif(not _pool_usable(), reason="process pools unavailable here")
def test_broken_pool_falls_back_to_serial():
    """Worker *processes* dying (not raising) triggers the serial fallback."""
    parent = os.getpid()
    payloads = [(parent, 1), (parent, 2)]
    assert list(poolmap.imap_fallback(_die_in_child, payloads, 2)) == [1, 2]


def test_submit_time_spawn_failure_falls_back_to_serial(monkeypatch):
    """Workers spawn lazily: fork denial at submit() is still environmental."""

    class NoForkPool:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, *args, **kwargs):
            raise OSError("fork denied by sandbox")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(poolmap, "ProcessPoolExecutor", NoForkPool)
    assert list(poolmap.imap_fallback(str, [1, 2, 3], 2)) == ["1", "2", "3"]


def test_pool_start_failure_falls_back_to_serial(monkeypatch):
    def broken_pool(*args, **kwargs):
        raise OSError("no fork for you")

    monkeypatch.setattr(poolmap, "ProcessPoolExecutor", broken_pool)
    assert list(poolmap.imap_fallback(str, [1, 2, 3], 2)) == ["1", "2", "3"]


def test_serial_path_never_touches_the_pool(monkeypatch):
    def exploding_pool(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("pool must not be constructed for workers=0")

    monkeypatch.setattr(poolmap, "ProcessPoolExecutor", exploding_pool)
    assert list(poolmap.imap_fallback(str, [1, 2], 0)) == ["1", "2"]


# ------------------------------------------------------------ slice utilities


def test_slices_ranges_roundtrip():
    slabs = block_slices((20, 6, 6), 4)
    for slc in slabs:
        ranges = slices_to_ranges(slc, (20, 6, 6))
        back = ranges_to_slices(ranges)
        assert all(
            (a.indices(s)[:2]) == (b.start, b.stop)
            for a, b, s in zip(slc, back, (20, 6, 6))
        )
    with pytest.raises(ConfigurationError):
        slices_to_ranges((slice(0, 4, 2), slice(None)), (8, 8))
    with pytest.raises(ConfigurationError):
        slices_to_ranges((slice(0, 4),), (8, 8))


def test_normalize_roi_and_intersection():
    assert normalize_roi((slice(2, 5),), (10, 6)) == (slice(2, 5), slice(0, 6))
    assert normalize_roi(slice(1, 3), (10,)) == (slice(1, 3),)
    assert normalize_roi(((1, 4), (0, 2)), (10, 6)) == (slice(1, 4), slice(0, 2))
    assert normalize_roi((slice(-4, None),), (10,)) == (slice(6, 10),)
    assert normalize_roi((3, slice(1, 4)), (10, 6)) == (slice(3, 4), slice(1, 4))
    assert normalize_roi((-1,), (10,)) == (slice(9, 10),)
    with pytest.raises(ConfigurationError):
        normalize_roi((10,), (10,))  # index out of range
    with pytest.raises(ConfigurationError):
        normalize_roi((object(),), (10,))  # unintelligible axis spec
    with pytest.raises(ConfigurationError):
        normalize_roi((slice(3, 3),), (10,))
    with pytest.raises(ConfigurationError):
        normalize_roi((slice(0, 2),) * 3, (10, 6))
    with pytest.raises(ConfigurationError):
        normalize_roi((slice(0, 4, 2),), (10,))
    assert slices_intersect((slice(0, 4), slice(0, 6)), (slice(3, 5), slice(2, 4)))
    assert not slices_intersect((slice(0, 4), slice(0, 6)), (slice(4, 8), slice(0, 6)))
