"""Property-based round-trip tests of the ChunkedDataset subsystem.

A parameterized sweep over dtype × shape × shard count × bound mode
checks the invariants the storage layer must never lose:

* the reassembled full field honours the **global** absolute L∞ bound;
* an ROI read returns exactly the corresponding slab of a full read at the
  same target (shard-deterministic reconstruction);
* stateful refinement is monotone, additive in bytes, and never re-reads a
  previously loaded byte range;
* malformed inputs fail loudly with the package's own exception types.

NB: this module deliberately uses a *local* ``np.random.default_rng`` — the
session-scoped ``rng`` fixture in ``conftest.py`` is a single shared stream,
and consuming it here would shift the draws every later test module sees.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, StreamFormatError
from repro.io import BlockContainerReader, BlockContainerWriter, ChunkedDataset

# (case id, dtype, shape, n_blocks, relative, error_bound).  The ids are
# opaque labels the tier-1 floor list names; their last part selects nothing.
CASES = [
    ("1d-f64-rel-vec", np.float64, (60,), 3, True, 1e-4),
    ("1d-f32-abs-vec", np.float32, (41,), 2, False, 1e-2),
    ("2d-f64-rel-ref", np.float64, (18, 14), 4, True, 1e-3),
    ("2d-f32-rel-vec", np.float32, (16, 13), 1, True, 1e-3),
    ("3d-f64-abs-vec", np.float64, (12, 10, 8), 3, False, 1e-3),
    ("3d-f64-rel-vec", np.float64, (14, 9, 11), 5, True, 1e-5),
    ("3d-f32-rel-ref", np.float32, (10, 8, 6), 2, True, 1e-3),
    ("3d-overdecomposed", np.float64, (5, 6, 7), 16, True, 1e-4),
    ("2d-f64-rel-fused", np.float64, (17, 15), 3, True, 1e-4),
]
IDS = [case[0] for case in CASES]


def _field(shape, dtype, seed):
    """A correlated random field (smooth base + mild noise) from a local rng."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=shape)
    for axis in range(len(shape)):
        base = np.cumsum(base, axis=axis)
    base += 0.1 * rng.normal(size=shape)
    return base.astype(dtype)


def _random_roi(shape, seed):
    rng = np.random.default_rng(seed + 1)
    roi = []
    for size in shape:
        start = int(rng.integers(0, size))
        stop = int(rng.integers(start + 1, size + 1))
        roi.append(slice(start, stop))
    return tuple(roi)


@pytest.mark.parametrize(
    "dtype,shape,n_blocks,relative,error_bound",
    [case[1:] for case in CASES],
    ids=IDS,
)
def test_roundtrip_bound_and_roi_slab(
    tmp_path, dtype, shape, n_blocks, relative, error_bound
):
    seed = hash((shape, n_blocks, relative)) % (2**31)
    field = _field(shape, dtype, seed)
    path = tmp_path / "field.rprc"
    manifest = ChunkedDataset.write(
        path, field, error_bound=error_bound, relative=relative,
        n_blocks=n_blocks,
    )
    eb = manifest["error_bound"]
    if relative:
        expected = error_bound * (float(field.max()) - float(field.min()))
        assert eb == pytest.approx(expected, rel=1e-6)
    else:
        assert eb == error_bound

    with ChunkedDataset(path) as dataset:
        assert dataset.shape == shape
        assert dataset.dtype == np.dtype(dtype)
        assert dataset.n_shards == len(manifest["shards"])
        assert dataset.n_shards <= min(n_blocks, shape[0])

        # Full read at the stored bound honours the *global* L∞ bound.
        full = dataset.read()
        assert full.data.shape == shape
        assert full.data.dtype == np.dtype(dtype)
        assert np.abs(full.data.astype(np.float64) - field.astype(np.float64)).max() \
            <= eb * (1 + 1e-9)

        # ROI read at a relaxed target equals the same target's full-read slab.
        target = eb * 64
        reference = dataset.read(error_bound=target)
        roi = _random_roi(shape, seed)
        part = dataset.read(error_bound=target, roi=roi)
        assert part.data.shape == tuple(s.stop - s.start for s in part.roi)
        assert np.array_equal(part.data, reference.data[part.roi])
        assert part.bytes_loaded <= reference.bytes_loaded
        assert set(part.shards) <= set(reference.shards)


def test_refine_is_monotone_additive_and_never_rereads(tmp_path):
    field = _field((20, 12, 10), np.float64, seed=90125)
    path = tmp_path / "field.rprc"
    manifest = ChunkedDataset.write(
        path, field, error_bound=1e-6, relative=True, n_blocks=4
    )
    eb = manifest["error_bound"]
    with ChunkedDataset(path) as dataset:
        seen = set()
        previous_error = np.inf
        total = 0
        for multiplier in (1024, 64, 8, 1):
            step = dataset.refine(error_bound=eb * multiplier)
            achieved = np.abs(step.data - field).max()
            assert achieved <= eb * multiplier * (1 + 1e-9)
            assert achieved <= previous_error * (1 + 1e-12)
            previous_error = achieved
            assert len(seen & set(step.ranges)) == 0
            seen |= set(step.ranges)
            total += step.bytes_loaded
            assert step.cumulative_bytes == total
        # Refining to a bound already satisfied loads nothing at all.
        idle = dataset.refine(error_bound=eb * 8)
        assert idle.bytes_loaded == 0 and idle.ranges == []


@pytest.mark.parametrize("prefetch", [2, 4])
def test_refine_under_prefetch_keeps_byte_and_range_accounting(tmp_path, prefetch):
    """Prefetch changes no reported number.

    A multiplexed engine fetches each step's ops ahead of decode, but
    accounting is consumption-based: every refine() step must report
    exactly the ranges and byte counts of the synchronous path, never
    re-read a range, and decode bitwise-identically.
    """
    field = _field((20, 12, 10), np.float64, seed=60801)
    path = tmp_path / "field.rprc"
    manifest = ChunkedDataset.write(
        path, field, error_bound=1e-6, relative=True, n_blocks=4
    )
    eb = manifest["error_bound"]
    ladder = (1024, 64, 8, 1)
    with ChunkedDataset(path) as dataset:
        sync = [dataset.refine(error_bound=eb * k) for k in ladder]
    with ChunkedDataset(path, prefetch=prefetch) as dataset:
        seen = set()
        total = 0
        for multiplier, reference in zip(ladder, sync):
            step = dataset.refine(error_bound=eb * multiplier)
            assert step.data.tobytes() == reference.data.tobytes()
            assert step.bytes_loaded == reference.bytes_loaded
            assert step.ranges == reference.ranges
            # Zero re-read ranges, additive byte accounting.
            assert len(seen & set(step.ranges)) == 0
            seen |= set(step.ranges)
            total += step.bytes_loaded
            assert step.cumulative_bytes == total
        idle = dataset.refine(error_bound=eb * 8)
        assert idle.bytes_loaded == 0 and idle.ranges == []


def test_refine_roi_then_widen(tmp_path):
    """Shards entering the ROI later start from scratch; old ones only add."""
    field = _field((16, 10, 8), np.float64, seed=4321)
    path = tmp_path / "field.rprc"
    manifest = ChunkedDataset.write(
        path, field, error_bound=1e-5, relative=True, n_blocks=4
    )
    eb = manifest["error_bound"]
    with ChunkedDataset(path) as dataset:
        first = dataset.refine(error_bound=eb * 16, roi=(slice(0, 4),))
        assert len(first.shards) == 1
        widened = dataset.refine(error_bound=eb, roi=(slice(0, 8),))
        assert len(widened.shards) == 2
        assert len(set(first.ranges) & set(widened.ranges)) == 0
        assert np.abs(widened.data - field[widened.roi]).max() <= eb * (1 + 1e-9)
        # The shard refined twice kept its retriever: plane counts only grew.
        keep = dataset.current_keep()
        assert set(keep) == {"shard-0000", "shard-0001"}


def test_read_is_stateless_refine_is_stateful(tmp_path):
    field = _field((12, 9, 7), np.float64, seed=777)
    path = tmp_path / "f.rprc"
    manifest = ChunkedDataset.write(
        path, field, error_bound=1e-5, relative=True, n_blocks=3
    )
    eb = manifest["error_bound"]
    with ChunkedDataset(path) as dataset:
        a = dataset.read(error_bound=eb * 4)
        b = dataset.read(error_bound=eb * 4)
        assert np.array_equal(a.data, b.data)
        assert a.bytes_loaded == b.bytes_loaded  # stateless: same cost twice
        dataset.refine(error_bound=eb * 4)
        again = dataset.refine(error_bound=eb * 4)
        assert again.bytes_loaded == 0  # stateful: already resident


def test_invalid_roi_and_bounds_rejected(tmp_path):
    field = _field((10, 8), np.float64, seed=31337)
    path = tmp_path / "f.rprc"
    ChunkedDataset.write(path, field, error_bound=1e-4, n_blocks=2)
    with ChunkedDataset(path) as dataset:
        with pytest.raises(ConfigurationError):
            dataset.read(roi=(slice(0, 0),))  # empty axis
        with pytest.raises(ConfigurationError):
            dataset.read(roi=(slice(0, 2),) * 3)  # too many axes
        with pytest.raises(ConfigurationError):
            dataset.read(roi=(slice(0, 4, 2),))  # strided
        with pytest.raises(ConfigurationError):
            dataset.read(error_bound=0.0)
        with pytest.raises(ConfigurationError):
            dataset.read(error_bound=float("nan"))


def test_non_dataset_container_rejected(tmp_path):
    path = tmp_path / "plain.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("something", b"not a dataset")
    with pytest.raises(StreamFormatError):
        ChunkedDataset(path)


def test_manifest_without_format_rejected(tmp_path):
    path = tmp_path / "odd.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("manifest", b'{"format": "other"}')
    with pytest.raises(StreamFormatError):
        ChunkedDataset(path)
    with BlockContainerWriter(tmp_path / "garbled.rprc") as writer:
        writer.add_block("manifest", b"\xff\xfe not json")
    with pytest.raises(StreamFormatError):
        ChunkedDataset(tmp_path / "garbled.rprc")


def test_manifest_missing_fields_rejected(tmp_path):
    """Structurally valid JSON with missing/bogus fields must not leak bare
    KeyError/TypeError (or the reader's file handle)."""
    for index, body in enumerate(
        [
            b'{"format": "repro-chunked-dataset", "version": 1}',
            b'{"format": "repro-chunked-dataset", "version": 1, "shape": [4],'
            b' "dtype": "bogus!!", "error_bound": 1.0, "shards": []}',
            b'{"format": "repro-chunked-dataset", "version": 1, "shape": [4],'
            b' "dtype": "float64", "error_bound": 1.0, "shards": [{"slices": [[0, 4]]}]}',
            b'{"format": "repro-chunked-dataset", "version": 1, "shape": [4],'
            b' "dtype": "float64", "error_bound": 1.0, "shards": [{"name": "shard-0000"}]}',
            b'["not", "an", "object"]',
        ]
    ):
        path = tmp_path / f"bad{index}.rprc"
        with BlockContainerWriter(path) as writer:
            writer.add_block("manifest", body)
        with pytest.raises(StreamFormatError):
            ChunkedDataset(path)


def test_manifest_short_coverage_rejected_at_open(tmp_path):
    """Shards that leave part of the domain uncovered make a corrupt
    dataset: it fails to open, so no read can return unset points."""
    field = _field((16, 6), np.float64, seed=5)
    full = tmp_path / "full.rprc"
    manifest = ChunkedDataset.write(full, field, error_bound=1e-3, n_blocks=4)
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


def test_is_dataset_sniff(tmp_path):
    field = _field((8, 6), np.float64, seed=99)
    path = tmp_path / "f.rprc"
    ChunkedDataset.write(path, field, error_bound=1e-3, n_blocks=2)
    assert ChunkedDataset.is_dataset(path)
    plain = tmp_path / "plain.ipc"
    plain.write_bytes(b"IPC1 definitely not a container")
    assert not ChunkedDataset.is_dataset(plain)
    assert not ChunkedDataset.is_dataset(tmp_path / "missing.rprc")
