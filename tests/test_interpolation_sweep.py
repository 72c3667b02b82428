"""The C interpolation sweep against its numpy oracle, bit for bit.

Every path through :class:`~repro.core.interpolation.InterpolationPredictor`
— ``decompose`` (the write), ``transform`` (the MGARD baselines) and
``reconstruct`` (every read and rung) — must give bitwise the answer of the
numpy sweep in ``tests/oracle_interpolation.py``.  Results are compared as
``.view(np.int64)``: equality of floats cannot see ``−0.0`` against
``+0.0``, and a skipped ``+ 0.0`` would show only there.  A NaN compares
as NaN, whatever its sign: IEEE 754 leaves the sign of an operation's NaN
result open, and numpy's own add returns the first NaN operand on some
memory layouts and the second on others.
"""

from __future__ import annotations

import math
import warnings
from typing import Dict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle_interpolation import OracleSweepPredictor
from repro import IPComp
from repro.core.interpolation import InterpolationPredictor
from repro.core.quantizer import LinearQuantizer

#: ±0.0, the smallest and a larger subnormal, ±1e300 and NaN.
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, np.nan])

METHODS = ("linear", "cubic")
GRANULARITIES = ("level", "sweep")


def _bits(a: np.ndarray) -> np.ndarray:
    """The array's bits, every NaN made the one NaN."""
    assert a.dtype in (np.float64, np.int64), a.dtype
    if a.dtype == np.float64:
        a = np.where(np.isnan(a), np.nan, a)
    return np.ascontiguousarray(a).view(np.int64)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b))


def _same_groups(a: Dict[int, np.ndarray], b: Dict[int, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)


def _field(shape, seed: int, specials: bool) -> np.ndarray:
    """A rough field; with ``specials`` a quarter of its points are SPECIALS."""
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.normal(size=shape), axis=-1)
    if specials:
        flat = data.reshape(-1)
        picks = rng.integers(0, flat.size, size=max(1, flat.size // 4))
        flat[picks] = rng.choice(SPECIALS, size=picks.size)
    return data


def _check_every_path(shape, method, granularity, seed, specials=True):
    new, old = InterpolationPredictor(shape, method), OracleSweepPredictor(shape, method)
    data = _field(shape, seed, specials)
    rng = np.random.default_rng(seed + 1)

    anchors, coeffs = new.transform(data, granularity)
    want_anchors, want_coeffs = old.transform(data, granularity)
    assert _same(anchors, want_anchors) and _same_groups(coeffs, want_coeffs)

    quantizer = LinearQuantizer(1e-3)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        # NaN and ±1e300 have no int64 code: the cast warns, the same on both sides.
        warnings.simplefilter("ignore", RuntimeWarning)
        got = new.decompose(data, quantizer, granularity)
        want = old.decompose(data, quantizer, granularity)
    assert _same(got[0], want[0]) and _same_groups(got[1], want[1])
    assert _same(got[2], want[2])

    anchor_values = quantizer.dequantize(got[0])
    codes = {k: rng.integers(-(2**20), 2**20, size=v.size) for k, v in got[1].items()}
    keys = sorted(codes)
    dropped = set(rng.permutation(keys)[: rng.integers(0, len(keys) + 1)].tolist())
    partial = {k: v for k, v in codes.items() if k not in dropped}
    inputs = [
        # float diffs: full, with groups missing, none at all
        (anchors, coeffs, None),
        (anchors, {k: v for k, v in coeffs.items() if k not in dropped}, None),
        (anchors, {}, None),
        # int64 codes with a bin width, with groups missing
        (anchor_values, codes, quantizer.bin_width),
        (anchor_values, partial, quantizer.bin_width),
        # narrower integer codes, and a mix of widths
        (anchor_values, {k: v.astype(np.int32) for k, v in partial.items()}, quantizer.bin_width),
        (
            anchor_values,
            {k: v.astype(np.int16 if k % 2 else np.int64) // 16 for k, v in codes.items()},
            0.375,
        ),
    ]
    for values, diffs, bin_width in inputs:
        fresh = new.reconstruct(values, diffs, granularity, bin_width=bin_width)
        expected = old.reconstruct(values, diffs, granularity, bin_width=bin_width)
        assert _same(fresh, expected)
        # ``out`` may hold anything on entry.
        out = np.full(shape, np.nan)
        assert new.reconstruct(values, diffs, granularity, bin_width=bin_width, out=out) is out
        assert _same(out, expected)


@st.composite
def _shapes(draw):
    """1-D … 4-D shapes with size-1 and non-power-of-two axes."""
    ndim = draw(st.integers(1, 4))
    cap = {1: 300, 2: 40, 3: 17, 4: 9}[ndim]
    return tuple(draw(st.lists(st.integers(1, cap), min_size=ndim, max_size=ndim)))


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=_shapes(),
    method=st.sampled_from(METHODS),
    granularity=st.sampled_from(GRANULARITIES),
    seed=st.integers(0, 2**31 - 1),
)
def test_the_c_sweep_is_bitwise_the_numpy_sweep(shape, method, granularity, seed):
    _check_every_path(shape, method, granularity, seed)


@pytest.mark.parametrize(
    "shape",
    [(3, 2, 5, 1, 4), (2, 3, 1, 2, 2, 3, 1, 2, 2), (1, 1, 1, 1, 1, 1, 1, 1, 3)],
    ids=str,
)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_no_rank_cap(shape, method, granularity):
    _check_every_path(shape, method, granularity, seed=math.prod(shape) + len(shape))


@pytest.mark.parametrize("shape", [(5, 4, 3, 6, 5), (2, 3, 2, 2, 3, 2, 2, 3, 2)], ids=str)
def test_the_codec_round_trips_high_rank_fields(shape):
    data = _field(shape, seed=len(shape), specials=False)
    comp = IPComp(error_bound=1e-3, relative=False)
    restored = comp.decompress(comp.compress(data))
    assert restored.shape == shape
    assert np.max(np.abs(restored - data)) <= 1e-3


def test_a_strided_field_transforms_like_its_copy():
    """``transform`` hands C a contiguous field whatever it was given."""
    data = _field((18, 20), seed=7, specials=True)
    predictor = InterpolationPredictor(data.shape)
    anchors, coeffs = predictor.transform(np.asfortranarray(data))
    want_anchors, want_coeffs = predictor.transform(data)
    assert _same(anchors, want_anchors) and _same_groups(coeffs, want_coeffs)


# ------------------------------------------------------------ the C quantizer
#
# ``decompose`` quantizes inside the C sweep.  These fields put chosen
# differences ``y`` on every target of the finest pass: the even columns are
# zero, so every prediction there is ±0.0 and ``y`` is the odd column's value.


def _edge_diffs() -> Dict[str, tuple]:
    """name → (differences, bin width): the quantizer's edge cases."""
    rng = np.random.default_rng(2047)
    w = 2e-3
    k = rng.integers(-(2**40), 2**40, size=60).astype(np.float64)
    big = 2.0 ** rng.uniform(51, 53, size=600) * w * rng.choice([-1.0, 1.0], size=600)
    near = np.array([2.0**62 - 3, 2.0**62, 2.0**62 + 2048, 2.0**63 - 1024, 2.0**63])
    return {
        # w a power of two, so ``(k + ½)·w / w`` is an exact tie: half to even.
        "ties": (np.concatenate([k + 0.5, np.arange(-8, 8) + 0.5]) * 2.0**-9, 2.0**-9),
        # |y|/w in [2^51, 2^53]: the divide can land a bin off and be nudged.
        "nudged": (big, w),
        # codes about ±2^62, and the last doubles below and at 2^63.
        "wide": (np.concatenate([near, -near]) * w, w),
        # INT64_MIN, and the nudges from it: +2, or a wrap to INT64_MAX − 1.
        "specials": (np.array([np.inf, -np.inf, 1e300, -1e300, np.nan, -np.nan, 1e19, -1e19]), w),
    }


def _diff_field(diffs: np.ndarray) -> np.ndarray:
    rows = 3
    diffs = np.resize(diffs, rows * -(-diffs.size // rows)).reshape(rows, -1)
    field = np.zeros((rows, 2 * diffs.shape[1] + 1))
    field[:, 1::2] = diffs
    return field


@pytest.mark.parametrize("case", ["ties", "nudged", "wide", "specials"])
@pytest.mark.parametrize("method", METHODS)
def test_the_c_quantizer_is_bitwise_the_numpy_quantizer(case, method):
    diffs, w = _edge_diffs()[case]
    field = _diff_field(diffs)
    quantizer = LinearQuantizer(w / 2)
    new, old = InterpolationPredictor(field.shape, method), OracleSweepPredictor(field.shape, method)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        got = new.decompose(field, quantizer, "sweep")
        want = old.decompose(field, quantizer, "sweep")
        # The finest pass quantized exactly the chosen differences.
        values = field[:, 1::2].ravel()
        expected = quantizer.quantize(values)
        unnudged = np.rint(values / w).astype(np.int64)
    assert _same(got[0], want[0]) and _same_groups(got[1], want[1])
    assert _same(got[2], want[2])
    assert _same(got[1][1], expected)
    if case == "nudged":
        assert (expected != unnudged).any(), "no code was nudged: the case tests nothing"
    if case == "specials":
        # +big: INT64_MIN nudged up twice; −big: nudged down, wrapping to
        # INT64_MAX, then down again; NaN: INT64_MIN, never nudged.
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        assert expected[:8].tolist() == [
            low + 2, high - 1, low + 2, high - 1, low, low, low + 2, high - 1
        ]
