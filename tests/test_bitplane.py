"""Unit tests of the bitplane chain: plane order, partial decode, XOR prediction.

The one chain is the plane kernel's (:mod:`repro.core.kernels`); these pin the
properties progressive retrieval rests on through its public hooks, while
``tests/test_kernels.py`` checks it bit for bit against the loop oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle_kernel import plane_rows, shard_rows

from repro.core.kernels import get_kernel
from repro.core.negabinary import from_negabinary, to_negabinary, truncate_low_planes
from repro.errors import ConfigurationError

KERNEL = get_kernel()


def _values(rng, n=500, width=12):
    """int64 values whose negabinary codes are at most ``width`` bits wide."""
    return from_negabinary(rng.integers(0, 1 << width, size=n).astype(np.uint64))


def _encode(values, prefix_bits=0):
    """``(nbits, rows)``: the level's width and its packed plane rows."""
    ((nbits, blocks),) = KERNEL.encode_planes([values], prefix_bits)
    return nbits, plane_rows(blocks, values.size)


def _decode(rows, count, nbits, prefix_bits=0):
    (codes,) = KERNEL.decode_planes(*shard_rows([(rows, count, nbits)]), prefix_bits)
    return codes


def _bits(rows, count):
    """The 0/1 plane matrix of packed rows (row 0 the most significant plane)."""
    return np.unpackbits(rows, axis=1, count=count, bitorder="little")


def test_extract_assemble_roundtrip(rng):
    values = _values(rng)
    nbits, rows = _encode(values)
    assert nbits == 12 and rows.shape == (12, (values.size + 7) // 8)
    assert np.array_equal(_decode(rows, values.size, nbits), values)


def test_plane_zero_is_most_significant(rng):
    values = from_negabinary(np.array([1 << 15, 0, 1], dtype=np.uint64))
    nbits, rows = _encode(values)
    planes = _bits(rows, 3)
    assert nbits == 16
    assert planes[0, 0] == 1 and planes[0, 1] == 0 and planes[0, 2] == 0
    assert planes[15, 2] == 1  # least significant plane holds the LSB


def test_partial_assembly_zeroes_missing_low_planes(rng):
    values = _values(rng, width=10)
    nbits, rows = _encode(values)
    partial = _decode(rows[:4], values.size, nbits)
    # Keeping the top 4 planes zeroes the low nbits − 4 negabinary digits.
    low = np.uint64((1 << (nbits - 4)) - 1)
    assert np.array_equal(to_negabinary(partial), to_negabinary(values) & ~low)


def test_too_many_planes_rejected(rng):
    values = _values(rng)
    nbits, rows = _encode(values)
    with pytest.raises(ValueError, match="plane rows"):
        _decode(rows, values.size, nbits - 2)


@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
def test_predictive_roundtrip(rng, prefix_bits):
    values = _values(rng)
    nbits, rows = _encode(values, prefix_bits)
    assert np.array_equal(_decode(rows, values.size, nbits, prefix_bits), values)


def test_prefix_zero_is_identity(rng):
    values = _values(rng)
    nbits, rows = _encode(values, 0)
    codes = to_negabinary(values)
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)[:, None]
    assert np.array_equal(_bits(rows, values.size), (codes >> shifts) & np.uint64(1))


def test_predictive_decode_only_needs_prefix_planes(rng):
    """Decoding a prefix of the planes must not depend on the unloaded ones."""
    values = _values(rng)
    nbits, rows = _encode(values, 2)
    partial = _decode(rows[:5], values.size, nbits, 2)
    assert np.array_equal(partial, truncate_low_planes(values, nbits - 5))


def test_invalid_prefix_bits_rejected(rng):
    values = _values(rng)
    with pytest.raises(ConfigurationError):
        KERNEL.encode_planes([values], 4)
    with pytest.raises(ConfigurationError):
        KERNEL.decode_planes(*shard_rows([]), -1)


def test_level_width_is_one_to_64_planes():
    """The kernel derives every width from the codes: 1 plane at the least
    (an all-zero or empty level), 64 at the most (the widest ``int64``)."""
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1])
    widths = [nbits for nbits, _ in KERNEL.encode_planes(
        [np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64), extremes], 0
    )]
    assert widths == [1, 1, 64]


def test_pack_unpack_roundtrip(rng):
    plane = (rng.random(1000) > 0.7).astype(np.uint8)
    # A level of 0/1 values is one plane: its bits, packed.
    nbits, rows = _encode(plane.astype(np.int64))
    assert nbits == 1 and rows.nbytes == 125
    assert np.array_equal(_bits(rows, 1000)[0], plane)
    assert np.array_equal(_decode(rows, 1000, 1), plane)


def test_pack_plane_partial_byte(rng):
    plane = np.array([1, 0, 1], dtype=np.int64)
    nbits, rows = _encode(plane)
    assert rows.tobytes() == b"\x05"  # little-endian bits, zero pad
    assert np.array_equal(_decode(rows, 3, nbits), plane)


def test_predictive_coding_lowers_entropy_on_correlated_planes():
    """Correlated consecutive planes (sign-extension-like) should XOR to mostly 0."""
    from repro.coders.entropy import bit_entropy

    n = 4000
    rng = np.random.default_rng(5)
    # Build codes where the high planes are strongly correlated (all-ones runs).
    magnitudes = rng.integers(0, 4, size=n).astype(np.uint64)
    values = from_negabinary(np.uint64(0b111100) | magnitudes)

    def mean_entropy(prefix_bits):
        _, rows = _encode(values, prefix_bits)
        return np.mean([bit_entropy(plane) for plane in _bits(rows, n)])

    assert mean_entropy(2) <= mean_entropy(0) + 1e-12
