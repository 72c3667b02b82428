"""Tests of the domain-decomposition parallel substrate.

Sharded round trips go through the one sharded codec:
``ChunkedDataset.write`` (the block compressor's write transport) and
``ChunkedDataset.read``.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing.process

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
    ranges_to_slices,
    slices_intersect,
    slices_to_ranges,
)
from repro.retrieval.engine import assemble
from repro.service import RetrievalService


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
    options = {"error_bound": 1e-5, "relative": True, **options}
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
    """``workers`` is an accepted no-op: every value writes the bytes the
    default write does (there is one write path)."""
    _written(tmp_path / "default.rprc", smooth_3d, n_blocks=2)
    for workers in (0, 1, 2, None):
        path = tmp_path / f"workers-{workers}.rprc"
        _written(path, smooth_3d, n_blocks=2, workers=workers)
        assert path.read_bytes() == (tmp_path / "default.rprc").read_bytes()


def test_compress_into_and_blocks_from_entries(tmp_path, smooth_3d):
    """The write transport writes one ``shard-NNNN`` entry per slab, each
    carrying the slab extents it returns; the entries alone rebuild the
    field within the global bound."""
    resolved = CodecProfile(error_bound=1e-5, relative=True).resolve(smooth_3d)
    comp = BlockParallelCompressor(resolved, 3)
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
    manifest = _written(full, smooth_3d, n_blocks=2)
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
        BlockParallelCompressor(absolute, 0)
    # A still-relative profile would be resolved slab by slab, breaking the
    # global bound: the transport refuses it.
    with pytest.raises(ConfigurationError, match="absolute"):
        BlockParallelCompressor(CodecProfile(relative=True), 2)


@pytest.mark.parametrize(
    "options",
    [{"workers": -1}, {"workers": 1.5}, {"workers": True}, {"n_blocks": 0},
     {"n_blocks": 2.5}],
)
def test_write_rejects_bad_runtime_knobs(tmp_path, smooth_3d, options):
    """A bad ``n_blocks``, or a bad value of the ignored ``workers``, is a
    configuration error before any file exists."""
    path = tmp_path / "never.rprc"
    with pytest.raises(ConfigurationError):
        _written(path, smooth_3d, **{"n_blocks": 2, **options})
    assert not path.exists()


# ------------------------------------------------------- nothing starts a process


def _round_trip(path, field):
    """A default write, then a read, a two-rung refine and a service get."""
    ChunkedDataset.write(path, field, error_bound=1e-5, relative=True, n_blocks=4)
    with ChunkedDataset(path) as dataset:
        eb = dataset.absolute_bound
        answers = [dataset.read().data, dataset.read(error_bound=eb * 16, roi=(slice(2, 10),)).data]
        answers += [dataset.refine(error_bound=eb * 64).data, dataset.refine(error_bound=eb).data]
    with RetrievalService() as service:
        answers.append(service.get(path, eb * 4, roi=(slice(1, 7),)).data)
    return path.read_bytes(), [a.tobytes() for a in answers]


def test_nothing_starts_a_process(tmp_path, monkeypatch, smooth_3d):
    """Every write and read runs in this process: with process pools and
    process starts made to fail, a default write, a read, a refine and a
    service get answer bitwise what an unpatched run does."""
    expected = _round_trip(tmp_path / "free.rprc", smooth_3d)
    started = []

    def refuse(kind):
        def refused(*args, **kwargs):
            started.append(kind)
            raise AssertionError(f"{kind} started")
        return refused

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse("pool"))
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse("process"))
    assert _round_trip(tmp_path / "patched.rprc", smooth_3d) == expected
    assert not started


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
