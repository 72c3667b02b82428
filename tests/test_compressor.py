"""Tests of the public IPComp façade."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IPComp, IPCompConfig
from repro.errors import ConfigurationError


def test_roundtrip_2d(smooth_2d):
    comp = IPComp(error_bound=1e-6, relative=True)
    blob = comp.compress(smooth_2d)
    restored = comp.decompress(blob)
    assert np.abs(smooth_2d - restored).max() <= comp.absolute_bound(smooth_2d) * (1 + 1e-12)


def test_roundtrip_1d(signal_1d):
    comp = IPComp(error_bound=1e-7, relative=True)
    restored = comp.decompress(comp.compress(signal_1d))
    assert np.abs(signal_1d - restored).max() <= comp.absolute_bound(signal_1d) * (1 + 1e-12)


def test_roundtrip_3d_rough(rough_3d):
    comp = IPComp(error_bound=1e-4, relative=True)
    restored = comp.decompress(comp.compress(rough_3d))
    assert np.abs(rough_3d - restored).max() <= comp.absolute_bound(rough_3d) * (1 + 1e-12)


def test_absolute_bound_mode(smooth_3d):
    comp = IPComp(error_bound=1e-3, relative=False)
    assert comp.absolute_bound(smooth_3d) == 1e-3
    restored = comp.decompress(comp.compress(smooth_3d))
    assert np.abs(smooth_3d - restored).max() <= 1e-3 * (1 + 1e-12)


def test_float32_input_roundtrip(smooth_3d):
    data = smooth_3d.astype(np.float32)
    comp = IPComp(error_bound=1e-4, relative=True)
    restored = comp.decompress(comp.compress(data))
    assert restored.dtype == np.float32
    assert np.abs(data.astype(np.float64) - restored.astype(np.float64)).max() <= (
        comp.absolute_bound(data) * (1 + 1e-6) + 1e-6
    )


def test_smooth_data_compresses_better_than_rough(smooth_3d, rough_3d):
    comp = IPComp(error_bound=1e-5, relative=True)
    cr_smooth = IPComp.compression_ratio(smooth_3d, comp.compress(smooth_3d))
    cr_rough = IPComp.compression_ratio(rough_3d, comp.compress(rough_3d))
    assert cr_smooth > cr_rough


def test_looser_bounds_give_higher_ratio(smooth_3d):
    ratios = []
    for eb in (1e-8, 1e-6, 1e-4, 1e-2):
        comp = IPComp(error_bound=eb, relative=True)
        ratios.append(IPComp.compression_ratio(smooth_3d, comp.compress(smooth_3d)))
    assert ratios == sorted(ratios)


def test_bitrate_and_ratio_are_consistent(smooth_3d):
    comp = IPComp(error_bound=1e-6, relative=True)
    blob = comp.compress(smooth_3d)
    cr = IPComp.compression_ratio(smooth_3d, blob)
    br = IPComp.bitrate(smooth_3d, blob)
    assert cr * br == pytest.approx(64.0)  # 64-bit doubles


def test_one_shot_retrieve(smooth_3d):
    comp = IPComp(error_bound=1e-6, relative=True)
    blob = comp.compress(smooth_3d)
    eb = comp.absolute_bound(smooth_3d)
    result = comp.retrieve(blob, error_bound=eb * 100)
    assert np.abs(smooth_3d - result.data).max() <= eb * 100 * (1 + 1e-12)


def test_constant_field_compresses_extremely_well():
    data = np.full((40, 40, 40), 3.14159)
    comp = IPComp(error_bound=1e-6, relative=True)
    blob = comp.compress(data)
    assert IPComp.compression_ratio(data, blob) > 50
    assert np.abs(comp.decompress(blob) - data).max() <= comp.absolute_bound(data)


def test_invalid_inputs_rejected(smooth_3d):
    comp = IPComp(error_bound=1e-6)
    with pytest.raises(ConfigurationError):
        comp.compress(np.zeros(0))
    with pytest.raises(ConfigurationError):
        comp.compress(np.arange(10))  # integer dtype
    bad = smooth_3d.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ConfigurationError):
        comp.compress(bad)


def test_invalid_configurations_rejected():
    with pytest.raises(ConfigurationError):
        IPComp(error_bound=-1.0)
    with pytest.raises(ConfigurationError):
        IPComp(error_bound=1e-6, method="quadratic")
    with pytest.raises(ConfigurationError):
        IPComp(error_bound=1e-6, prefix_bits=9)
    with pytest.raises(ConfigurationError):
        IPCompConfig(error_bound=float("inf"))


@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
def test_all_prefix_settings(smooth_2d, prefix_bits):
    comp = IPComp(error_bound=1e-5, relative=True, prefix_bits=prefix_bits)
    restored = comp.decompress(comp.compress(smooth_2d))
    assert np.abs(smooth_2d - restored).max() <= comp.absolute_bound(smooth_2d) * (1 + 1e-12)
