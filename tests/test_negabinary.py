"""Unit tests of the negabinary (base −2) integer representation."""

from __future__ import annotations

from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from oracle_negabinary import loop_truncation_errors

from repro.core.negabinary import (
    CodeTable,
    from_negabinary,
    required_bits_from_codes,
    to_negabinary,
    truncate_low_planes,
    table_truncation_errors,
    truncation_error_tables,
    truncation_errors,
    truncation_uncertainty,
)


def required_bits(values: np.ndarray) -> int:
    """Planes of the widest negabinary code of ``values`` (a level's width)."""
    return required_bits_from_codes(to_negabinary(values))


def test_known_small_codes():
    # Classic base(-2) digit patterns.
    assert int(to_negabinary(np.array([0]))[0]) == 0b0
    assert int(to_negabinary(np.array([1]))[0]) == 0b1
    assert int(to_negabinary(np.array([-1]))[0]) == 0b11
    assert int(to_negabinary(np.array([2]))[0]) == 0b110
    assert int(to_negabinary(np.array([-2]))[0]) == 0b10
    assert int(to_negabinary(np.array([3]))[0]) == 0b111


def test_roundtrip_range():
    values = np.arange(-5000, 5000, dtype=np.int64)
    assert np.array_equal(from_negabinary(to_negabinary(values)), values)


def test_roundtrip_large_values():
    values = np.array([-(2**50), 2**50, -(2**31), 2**31, -1, 0, 1], dtype=np.int64)
    assert np.array_equal(from_negabinary(to_negabinary(values)), values)


def test_small_magnitudes_have_small_codes():
    # §4.4.2: values fluctuating around zero keep high-order bits at zero.
    values = np.arange(-8, 9, dtype=np.int64)
    codes = to_negabinary(values)
    assert int(codes.max()) < 64  # all fit in 6 negabinary digits


def test_required_bits_monotone_in_magnitude():
    assert required_bits(np.array([0])) == 1
    assert required_bits(np.array([1])) == 1
    assert required_bits(np.array([-1])) == 2
    small = required_bits(np.array([3, -3]))
    large = required_bits(np.array([3000, -3000]))
    assert large > small


def test_truncate_zero_planes_is_identity():
    values = np.array([-7, 0, 13, 255, -300], dtype=np.int64)
    assert np.array_equal(truncate_low_planes(values, 0), values)


def test_truncate_all_planes_gives_zero():
    values = np.array([-7, 0, 13], dtype=np.int64)
    assert np.array_equal(truncate_low_planes(values, 64), np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize("dropped", [1, 2, 3, 5, 8])
def test_truncation_error_within_theoretical_uncertainty(dropped):
    values = np.arange(-4096, 4096, dtype=np.int64)
    truncated = truncate_low_planes(values, dropped)
    worst = np.abs(values - truncated).max()
    assert worst <= truncation_uncertainty(dropped, "negabinary") + 1e-9


def test_uncertainty_formulas():
    # d odd: 2/3·2^d − 1/3 ; d even: 2/3·2^d − 2/3 ; sign-magnitude: 2^d − 1.
    assert truncation_uncertainty(1) == pytest.approx(1.0)
    assert truncation_uncertainty(2) == pytest.approx(2.0)
    assert truncation_uncertainty(3) == pytest.approx(5.0)
    assert truncation_uncertainty(4, "sign-magnitude") == pytest.approx(15.0)
    assert truncation_uncertainty(0) == 0.0


def test_negabinary_uncertainty_beats_sign_magnitude():
    for dropped in range(2, 20):
        assert truncation_uncertainty(dropped) < truncation_uncertainty(
            dropped, "sign-magnitude"
        )


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        truncation_uncertainty(3, "gray")


# ------------------------------------------------- truncation_errors (δ table)


def _delta_table_oracle(codes: np.ndarray, nbits: int, bin_width: float) -> np.ndarray:
    """The encoder's δ loop as it stood before ``truncation_errors``: truncate
    and re-decode the level once per ``b``.  Kept verbatim as the reference."""
    delta = np.zeros(nbits + 1, dtype=np.float64)
    for dropped in range(1, nbits + 1):
        truncated = truncate_low_planes(codes, dropped)
        if codes.size:
            delta[dropped] = float(np.abs(codes - truncated).max() * bin_width)
    return delta


@st.composite
def _levels(draw):
    """int64 levels: magnitudes 0 … 2^62, the sizes around one packed byte."""
    size = draw(st.sampled_from([0, 1, 7, 8, 9]))
    bound = 2 ** draw(st.integers(min_value=0, max_value=62))
    element = st.integers(min_value=-bound, max_value=bound)
    if draw(st.booleans()):  # a single-value level (all zero when it draws 0)
        return np.full(size, draw(st.one_of(st.just(0), element)), dtype=np.int64)
    return np.array(draw(st.lists(element, min_size=size, max_size=size)), dtype=np.int64)


@given(
    codes=_levels(),
    # None = the level's own width (what the encoder passes); the fixed
    # widths straddle the uint16 / uint32 / uint64 working dtypes.
    nbits=st.sampled_from([None, 1, 15, 16, 17, 31, 32, 33, 63, 64]),
    bin_width=st.sampled_from([2e-5, 0.02, 1.0, 3.7e4]),
)
# 22 = 64 − 42: the non-monotone table tests/test_predictive_coder.py pins.
@example(codes=np.array([22], dtype=np.int64), nbits=None, bin_width=1.0)
@example(codes=np.zeros(9, dtype=np.int64), nbits=17, bin_width=0.02)
@example(codes=np.array([2**62, -(2**62)], dtype=np.int64), nbits=None, bin_width=2e-5)
@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
def test_truncation_errors_equal_the_per_plane_loop(codes, nbits, bin_width):
    if nbits is None:
        nbits = required_bits(codes)
    table = truncation_errors(codes, nbits) * bin_width
    assert table.dtype == np.float64
    assert table.tobytes() == _delta_table_oracle(codes, nbits, bin_width).tobytes()


def test_truncation_errors_leaves_its_input_alone():
    codes = np.arange(-40, 40, dtype=np.int64)
    codes.setflags(write=False)
    truncation_errors(codes.reshape(8, 10), 8)
    assert np.array_equal(codes, np.arange(-40, 40))


@pytest.mark.parametrize("nbits", [-1, 65, 2**63, -(2**63) - 1])
def test_truncation_errors_rejects_impossible_widths(nbits):
    """Refused by name before anything converts it: a width beyond int64 is
    no ``OverflowError``, which means only a loss beyond int64."""
    with pytest.raises(ValueError, match=f"got {nbits}$"):
        truncation_errors(np.array([1]), nbits)
    with pytest.raises(ValueError, match=f"got {nbits}$"):
        truncation_error_tables([(np.arange(5), 2), (np.arange(5), nbits)])


# ------------------------------- truncation_error_tables (the shard-wide sweep)

INT64 = np.iinfo(np.int64)

#: Widths on both sides of every working-dtype boundary (uint16 / uint32 /
#: uint64, and the Python-int signs from 63 planes on); None = the level's own.
_WIDTHS = [None, 0, 1, 16, 17, 32, 33, 62, 63, 64]


@st.composite
def _shard_levels(draw):
    """One level of a shard: empty or not, any magnitude up to the int64
    extremes, and a width that may be its own, narrower or wider."""
    size = draw(st.sampled_from([0, 1, 7, 8, 9, 33]))
    magnitude = draw(st.integers(min_value=0, max_value=63))
    element = st.one_of(
        st.integers(min_value=-(2**magnitude), max_value=2**magnitude - 1),
        st.sampled_from([INT64.min, INT64.max, INT64.min + 1, INT64.max - 1]),
    )
    codes = np.array(draw(st.lists(element, min_size=size, max_size=size)), dtype=np.int64)
    nbits = draw(st.sampled_from(_WIDTHS))
    return codes, required_bits(codes) if nbits is None else nbits


def _loop_tables(levels):
    """The oracle's tables, or the first exception the loop raises."""
    try:
        return [loop_truncation_errors(codes, nbits) for codes, nbits in levels]
    except OverflowError as exc:
        return exc


@given(levels=st.lists(_shard_levels(), max_size=6))
# Wider levels after narrower ones: the sweep puts them first.
@example(levels=[(np.arange(-3, 4), 3), (np.zeros(0, dtype=np.int64), 5), (np.array([22]), 5)])
# Every dtype branch in one shard, an empty level among them.
@example(levels=[
    (np.array([5, -7]), 1), (np.array([2**15, -(2**15)]), 16), (np.zeros(0, dtype=np.int64), 17),
    (np.array([2**31 - 1, -3]), 32), (np.array([2**32]), 33), (np.array([2**62, -(2**62)]), 64),
])
# The int64 extremes where their tables fit: 63 planes (and fewer) of each.
@example(levels=[(np.array([INT64.min, INT64.max, 0]), 63), (np.array([INT64.min, INT64.max]), 17)])
# A 64-plane loss beyond int64: the loop fails, and so must the sweep.
@example(levels=[(np.array([6148914691236517206]), 64), (np.array([1]), 1)])
@example(levels=[(np.array([7]), 0), (np.zeros(0, dtype=np.int64), 0)])
@settings(deadline=None, max_examples=400, suppress_health_check=[HealthCheck.too_slow])
def test_truncation_error_tables_equal_the_loop_oracle(levels):
    expected = _loop_tables(levels)
    if isinstance(expected, OverflowError):
        with pytest.raises(OverflowError):
            truncation_error_tables(levels)
        return
    tables = truncation_error_tables(levels)
    assert len(tables) == len(levels)
    for table, oracle in zip(tables, expected):
        assert table.dtype == np.int64
        assert table.tobytes() == oracle.tobytes()


@pytest.mark.parametrize(
    "widths, message",
    [([8, 8, 8], "one width for each of 1 levels"), ([200], "nbits must be in 0..64, got 200")],
    ids=["three widths for one level", "200 planes"],
)
def test_table_truncation_errors_refuses_widths_the_c_cannot_read(widths, message):
    """The C reads a code address and a count for every width, and keeps the
    extremes of at most 64 planes: both are refused before the call."""
    table = CodeTable([np.arange(-50, 50, dtype=np.int64)])
    with pytest.raises(ValueError, match=message):
        table_truncation_errors(table, array("q", widths))
