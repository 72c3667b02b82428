"""Unit tests of the multi-level interpolation predictor."""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from oracle_interpolation import packed
from repro.core.interpolation import InterpolationPredictor, STENCIL_NORMS
from repro.core.quantizer import LinearQuantizer
from repro.errors import ConfigurationError


SHAPES = [(17,), (64,), (100,), (33, 20), (16, 16, 16), (13, 7, 5), (1, 9), (4, 4, 4, 4)]


@pytest.mark.parametrize("shape", SHAPES)
def test_levels_cover_every_point_exactly_once(shape):
    predictor = InterpolationPredictor(shape)
    assert predictor.total_points() == int(np.prod(shape))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("method", ["linear", "cubic"])
def test_decompose_respects_error_bound(shape, method, rng):
    predictor = InterpolationPredictor(shape, method)
    data = np.cumsum(rng.normal(size=shape), axis=0)
    quantizer = LinearQuantizer(1e-3)
    _, _, reconstruction = predictor.decompose(data, quantizer)
    assert np.abs(data - reconstruction).max() <= 1e-3 + 1e-12


@pytest.mark.parametrize("method", ["linear", "cubic"])
def test_reconstruct_matches_decompose_output(smooth_3d, method):
    predictor = InterpolationPredictor(smooth_3d.shape, method)
    quantizer = LinearQuantizer(1e-4)
    anchors, unit_codes, reconstruction = predictor.decompose(smooth_3d, quantizer)
    rebuilt = predictor.reconstruct(
        quantizer.dequantize(anchors), *packed(predictor, unit_codes), quantizer.bin_width
    )
    assert rebuilt.tobytes() == reconstruction.tobytes()
    # ``decompose``'s codes are views of one buffer laid out as ``layout``.
    buffer = unit_codes[predictor.num_units].base
    assert predictor.reconstruct(
        quantizer.dequantize(anchors), buffer, predictor.layout, quantizer.bin_width
    ).tobytes() == reconstruction.tobytes()


def test_reconstruct_is_linear(smooth_3d):
    """Algorithm 2 relies on reconstruction being linear in its inputs."""
    predictor = InterpolationPredictor(smooth_3d.shape)
    quantizer = LinearQuantizer(1e-4)
    anchors, codes, _ = predictor.decompose(smooth_3d, quantizer)
    anchors_dq = quantizer.dequantize(anchors)
    w = quantizer.bin_width

    full = predictor.reconstruct(anchors_dq, *packed(predictor, codes), w)
    half = predictor.reconstruct(0.5 * anchors_dq, *packed(predictor, codes), 0.5 * w)
    assert np.allclose(full * 0.5, half, atol=1e-10)

    zero = predictor.reconstruct(np.zeros_like(anchors_dq), *packed(predictor, {}), w)
    assert np.allclose(zero, 0.0)


def test_cubic_predicts_smooth_data_better_than_linear(smooth_3d):
    quantizer = LinearQuantizer(1e-6)
    magnitudes = {}
    for method in ("linear", "cubic"):
        predictor = InterpolationPredictor(smooth_3d.shape, method)
        _, codes, _ = predictor.decompose(smooth_3d, quantizer)
        finest = np.abs(codes[1]).mean()
        magnitudes[method] = finest
    assert magnitudes["cubic"] <= magnitudes["linear"]


def test_transform_is_exactly_invertible(smooth_3d):
    """On an integer field every coefficient is a whole number of 1/16ths
    (the stencils' weights), so they are exact codes of that bin width."""
    data = np.rint(smooth_3d * 1000)
    for method in ("linear", "cubic"):
        predictor = InterpolationPredictor(data.shape, method)
        anchors, coeffs = predictor.transform(data)
        codes = {unit: (c * 16).astype(np.int64) for unit, c in coeffs.items()}
        assert all(np.array_equal(codes[unit] / 16, c) for unit, c in coeffs.items())
        rebuilt = predictor.reconstruct(anchors, *packed(predictor, codes), 1 / 16)
        assert np.array_equal(rebuilt, data)


def test_transform_coefficient_counts_match_level_sizes(smooth_2d):
    predictor = InterpolationPredictor(smooth_2d.shape)
    _, coeffs = predictor.transform(smooth_2d)
    sizes = predictor.sweep_sizes
    assert coeffs.keys() == sizes.keys()
    for unit, values in coeffs.items():
        assert values.size == sizes[unit]


def test_level_sizes_sum_to_total(smooth_2d):
    predictor = InterpolationPredictor(smooth_2d.shape)
    assert predictor.anchor_count + sum(predictor.sweep_sizes.values()) == smooth_2d.size


def test_missing_level_diffs_treated_as_zero(smooth_2d):
    predictor = InterpolationPredictor(smooth_2d.shape)
    quantizer = LinearQuantizer(1e-3)
    anchors, codes, _ = predictor.decompose(smooth_2d, quantizer)
    partial = predictor.reconstruct(
        quantizer.dequantize(anchors),
        *packed(predictor, {predictor.num_units: codes[predictor.num_units]}),
        quantizer.bin_width,
    )
    assert partial.shape == smooth_2d.shape
    assert np.isfinite(partial).all()


def test_wrong_shape_rejected(smooth_2d):
    predictor = InterpolationPredictor((8, 8))
    with pytest.raises(ConfigurationError):
        predictor.decompose(smooth_2d, LinearQuantizer(1e-3))


def test_wrong_diff_count_rejected(smooth_2d):
    predictor = InterpolationPredictor(smooth_2d.shape)
    anchors = np.zeros(predictor.anchor_count)
    with pytest.raises(ConfigurationError, match="unit 1 expects"):
        predictor.reconstruct(anchors, *packed(predictor, {1: np.zeros(3, dtype=np.int64)}), 1.0)
    with pytest.raises(ConfigurationError, match="must be int64"):
        predictor.reconstruct(
            anchors, *packed(predictor, {1: np.zeros(predictor.sweep_sizes[1])}), 1.0
        )


def test_reconstruct_refuses_codes_and_offsets_the_c_cannot_read_safely(smooth_2d):
    """Every unit's codes are checked to lie in the buffer before any pass runs."""
    predictor = InterpolationPredictor(smooth_2d.shape)
    anchors = np.zeros(predictor.anchor_count)
    n = sum(predictor.sweep_sizes.values())
    codes = np.zeros(n, dtype=np.int64)
    layout = predictor.layout
    for buffer, offsets in (
        (codes[:-1], layout),  # the finest unit one code short
        (codes[::2], layout),  # not C-contiguous
        (codes.reshape(1, n), layout),  # not 1-D
        (list(codes), layout),  # not an array
        (codes, list(layout)),  # offsets not an array('q')
        (codes, layout[:-1]),  # one offset short
        (codes, layout[:-1] + array("q", [n])),  # the finest unit past the end
        (codes, array("q", [2**62]) * predictor.num_units),  # every unit far past it
    ):
        with pytest.raises(ConfigurationError):
            predictor.reconstruct(anchors, buffer, offsets, 1.0)
    # Offsets may overlap and come in any order; a negative one is no codes.
    for offsets in (array("q", [0]) * predictor.num_units, array("q", [-5]) * predictor.num_units):
        assert (predictor.reconstruct(anchors, codes, offsets, 1.0) == 0.0).all()
    with pytest.raises(ConfigurationError, match="is not one of"):
        predictor.unit_offsets({predictor.num_units + 1: 0})


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigurationError):
        InterpolationPredictor((0, 4))
    with pytest.raises(ConfigurationError):
        InterpolationPredictor((8, 8), method="quintic")


def test_stencil_norms_match_paper():
    assert STENCIL_NORMS["linear"] == 1.0
    assert STENCIL_NORMS["cubic"] == 1.25
    assert InterpolationPredictor((16,), "cubic").stencil_norm == 1.25

