"""Tests of the ZFP-like block transform compressor and its residual variant."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.analysis import compression_ratio, max_error
from repro.baselines import ZFPCompressor, ZFPResidualCompressor
from repro.baselines.base import pack_sections, unpack_sections
from repro.baselines.zfp import (
    BLOCK,
    _from_blocks,
    _pad_to_blocks,
    _to_blocks,
    forward_transform,
    inverse_transform,
)
from repro.datasets import load_dataset
from repro.errors import StreamFormatError


def test_block_partitioning_roundtrip(rng):
    data = rng.normal(size=(12, 8, 16))
    padded, original_shape = _pad_to_blocks(data)
    assert all(s % BLOCK == 0 for s in padded.shape)
    blocks = _to_blocks(padded)
    assert blocks.shape == (np.prod([s // BLOCK for s in padded.shape]), BLOCK, BLOCK, BLOCK)
    assert np.array_equal(_from_blocks(blocks, padded.shape), padded)


def test_padding_replicates_edges(rng):
    data = rng.normal(size=(5, 6))
    padded, _ = _pad_to_blocks(data)
    assert padded.shape == (8, 8)
    assert np.array_equal(padded[5:, :6], np.broadcast_to(data[4, :], (3, 6)))


def test_lifting_transform_is_exactly_invertible(rng):
    blocks = rng.integers(-(2**30), 2**30, size=(50, 4, 4, 4)).astype(np.int64)
    coefficients = forward_transform(blocks)
    assert np.array_equal(inverse_transform(coefficients), blocks)


def test_lifting_transform_decorrelates_constant_blocks():
    blocks = np.full((3, 4, 4, 4), 1000, dtype=np.int64)
    coefficients = forward_transform(blocks)
    # Everything except the DC coefficient collapses to (near) zero.
    nonzero = np.count_nonzero(coefficients.reshape(3, -1), axis=1)
    assert np.all(nonzero <= 1)


@pytest.mark.parametrize("eb", [1e-3, 1e-5, 1e-7])
def test_roundtrip_respects_bound(smooth_3d, eb):
    comp = ZFPCompressor(error_bound=eb, relative=True)
    blob = comp.compress(smooth_3d)
    restored = comp.decompress(blob)
    assert max_error(smooth_3d, restored) <= comp.absolute_bound(smooth_3d) * (1 + 1e-12)
    assert restored.shape == smooth_3d.shape


def test_roundtrip_2d(smooth_2d):
    comp = ZFPCompressor(error_bound=1e-5, relative=True)
    restored = comp.decompress(comp.compress(smooth_2d))
    assert max_error(smooth_2d, restored) <= comp.absolute_bound(smooth_2d) * (1 + 1e-12)


def test_roundtrip_rough_field(rough_3d):
    comp = ZFPCompressor(error_bound=1e-4, relative=True)
    restored = comp.decompress(comp.compress(rough_3d))
    assert max_error(rough_3d, restored) <= comp.absolute_bound(rough_3d) * (1 + 1e-12)


def test_looser_bound_higher_ratio(smooth_3d):
    tight = ZFPCompressor(error_bound=1e-8, relative=True)
    loose = ZFPCompressor(error_bound=1e-3, relative=True)
    assert compression_ratio(smooth_3d, loose.compress(smooth_3d)) > compression_ratio(
        smooth_3d, tight.compress(smooth_3d)
    )


def test_non_multiple_of_four_shapes(rng):
    data = np.cumsum(rng.normal(size=(13, 9, 7)), axis=0)
    comp = ZFPCompressor(error_bound=1e-4, relative=True)
    restored = comp.decompress(comp.compress(data))
    assert restored.shape == data.shape
    assert max_error(data, restored) <= comp.absolute_bound(data) * (1 + 1e-12)


def test_zfp_r_progressive_retrieval(smooth_3d):
    comp = ZFPResidualCompressor(error_bound=1e-6, relative=True, rungs=3)
    blob = comp.compress(smooth_3d)
    eb = comp.absolute_bound(smooth_3d)
    coarse = comp.retrieve(blob, error_bound=eb * 16)
    fine = comp.retrieve(blob, error_bound=eb)
    assert max_error(smooth_3d, coarse.data) <= eb * 16 * (1 + 1e-9)
    assert max_error(smooth_3d, fine.data) <= eb * (1 + 1e-9)
    assert fine.passes > coarse.passes


@pytest.fixture(scope="module")
def density_stream():
    comp = ZFPCompressor(error_bound=1e-4, relative=True)
    return comp, comp.compress(load_dataset("density", shape=(16, 16, 16)))


@pytest.mark.parametrize(
    "tamper",
    [
        pytest.param(lambda payload, meta: (payload[: len(payload) // 2], {}), id="cut"),
        pytest.param(lambda payload, meta: (payload + b"\0", {}), id="over-long"),
        pytest.param(
            lambda payload, meta: (payload, {"dropped": meta["nbits"]}), id="dropped-nbits"
        ),
        pytest.param(lambda payload, meta: (payload, {"dropped": -1}), id="dropped-minus-1"),
        pytest.param(lambda payload, meta: (payload, {"nbits": 65}), id="nbits-65"),
        pytest.param(lambda payload, meta: (payload, {"count": meta["count"] - 8}), id="count"),
    ],
)
def test_hostile_stream_is_refused(density_stream, tamper):
    """A payload or header that does not add up is refused before anything is
    inflated or sized from it, never decoded silently."""
    comp, blob = density_stream
    meta, (section,) = unpack_sections(blob)
    payload, changes = tamper(zlib.decompress(section), meta)
    tampered = pack_sections({**meta, **changes}, [zlib.compress(payload)])
    with pytest.raises(StreamFormatError):
        comp.decompress(tampered)
