"""The write's plane chain against its loop oracles, on generated shards.

``PlaneKernel.encode_planes`` must return, level for level, the bytes of the
per-level loop in ``tests/oracle_kernel.py``, and
``negabinary.truncation_error_tables`` the tables of
``tests/oracle_negabinary.py``'s loop — whatever implements them.  The
shards are drawn to hit every edge the implementations have: levels of
every negabinary width 1–64 (a 63- or 64-plane δ table may overflow
``int64``, which both sides must refuse), empty levels, one value, counts
1–17, and counts around 8 · 256 values (2047, 2048, 2049 and 4105, past a
second such chunk), with every prefix 0–3.

Every draw comes from hypothesis or a module-local generator (the conftest
``rng`` fixture is session-scoped and shared).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from oracle_kernel import OracleKernel
from oracle_negabinary import loop_truncation_errors
from repro.core.kernels import get_kernel
from repro.core.negabinary import (
    from_negabinary,
    required_bits_from_codes,
    to_negabinary,
    truncation_error_tables,
)

REFERENCE = OracleKernel()

#: Value counts of a level: empty, one, 1–17, and around the 2048-value chunk.
COUNTS = [0, 1, *range(1, 18), 2047, 2048, 2049, 4105]


def _level(seed: int, count: int, width: int) -> np.ndarray:
    """``count`` int64 codes whose negabinary width is exactly ``width``
    (when ``count`` > 0): random digits below it, the top one set in one
    value."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 2**64, size=count, dtype=np.uint64, endpoint=False)
    digits &= np.uint64((1 << width) - 1)
    if count:
        digits[int(rng.integers(0, count))] |= np.uint64(1 << (width - 1))
    return from_negabinary(digits)


@st.composite
def shards(draw, max_levels: int = 5):
    """A shard's levels: every width 1–64, empty levels and the edge counts;
    the big counts are drawn rarely, so that the oracle stays quick."""
    levels = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_levels))):
        big = draw(st.integers(0, 5)) == 0
        count = draw(st.sampled_from(COUNTS[-4:] if big else COUNTS[:-4]))
        width = draw(st.integers(min_value=1, max_value=64))
        levels.append(_level(draw(st.integers(0, 2**32 - 1)), count, width))
    return levels


@given(levels=shards(), prefix_bits=st.integers(0, 3))
@example(levels=[_level(1, 2048, 64), _level(2, 0, 5), _level(3, 1, 1)], prefix_bits=3)
@example(levels=[_level(4, 4105, 17), _level(5, 2047, 63), _level(6, 2049, 16)], prefix_bits=2)
@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_encode_planes_equals_the_loop_oracle(levels, prefix_bits):
    got = get_kernel().encode_planes(levels, prefix_bits)
    assert len(got) == len(levels)
    for (nbits, blocks), codes in zip(got, levels):
        # The oracle never sees more than one level at a time.
        assert (nbits, blocks) == REFERENCE.encode_planes([codes], prefix_bits)[0], (
            codes.size,
            nbits,
        )
        assert all(isinstance(block, bytes) for block in blocks)


def _loop_tables(levels):
    """The oracle's tables, or the first exception the loop raises."""
    try:
        return [loop_truncation_errors(codes, nbits) for codes, nbits in levels]
    except OverflowError as exc:
        return exc


@st.composite
def delta_shards(draw):
    """Levels with the width the encoder gives them (their own), or now and
    then any width 0–64."""
    levels = []
    for codes in draw(shards(max_levels=6)):
        own = required_bits_from_codes(to_negabinary(codes))
        nbits = draw(st.one_of(st.just(own), st.integers(0, 64))) if codes.size else own
        levels.append((codes, nbits))
    return levels


@given(levels=delta_shards())
# A 64-plane loss past int64: the loop fails, and so must the tables.
@example(levels=[(np.array([6148914691236517206]), 64), (np.array([1]), 1)])
@example(levels=[(_level(7, 2049, 63), 63), (_level(8, 4105, 64), 64), (_level(9, 0, 1), 1)])
@example(levels=[(_level(10, 2048, 16), 16), (_level(11, 17, 17), 17), (_level(12, 1, 33), 33)])
@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
def test_truncation_error_tables_equal_the_loop_oracle_on_generated_shards(levels):
    expected = _loop_tables(levels)
    if isinstance(expected, OverflowError):
        with pytest.raises(OverflowError, match=r"\d+ bits wide"):
            truncation_error_tables(levels)
        return
    tables = truncation_error_tables(levels)
    assert len(tables) == len(levels)
    for table, oracle, (_, nbits) in zip(tables, expected, levels):
        assert table.dtype == np.int64 and table.shape == (nbits + 1,)
        assert table.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
def test_every_width_at_every_edge_count(prefix_bits):
    """One level of every width 1–64 at each edge count, as one shard: the
    bytes and the δ tables of the loops (or the loop's overflow)."""
    rng = np.random.default_rng(20261019 + prefix_bits)
    for count in (1, 9, 17, 2047, 2048, 2049, 4105):
        levels = [_level(int(rng.integers(2**32)), count, width) for width in range(1, 65)]
        got = get_kernel().encode_planes(levels, prefix_bits)
        assert [nbits for nbits, _ in got] == list(range(1, 65))
        # The oracle's bytes: every width for short levels, the dtype and
        # group edges for long ones (the oracle packs bit by bit).
        widths = range(1, 65) if count <= 17 else (1, 7, 8, 9, 16, 17, 32, 33, 56, 63, 64)
        for width in widths:
            want = REFERENCE.encode_planes([levels[width - 1]], prefix_bits)[0]
            assert got[width - 1] == want, (count, width)
        shard = [(c, nbits) for c, (nbits, _) in zip(levels, got)]
        # Below 63 planes no loss can overflow; the whole shard may.
        for part in (shard[:62], shard):
            expected = _loop_tables(part)
            if isinstance(expected, OverflowError):
                with pytest.raises(OverflowError, match=r"\d+ bits wide"):
                    truncation_error_tables(part)
                continue
            for table, oracle in zip(truncation_error_tables(part), expected):
                assert table.tobytes() == oracle.tobytes()
