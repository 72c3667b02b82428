"""Unit tests of the canonical Huffman coder."""

from __future__ import annotations

import struct
import time

import numpy as np
import pytest

from repro.coders.huffman import (
    decode_symbols,
    encode_symbols,
    estimate_code_lengths,
)
from repro.errors import StreamFormatError


def test_symbol_roundtrip_small():
    symbols = np.array([0, 0, 1, -1, 2, 0, 0, 5, -7, 0], dtype=np.int64)
    assert np.array_equal(decode_symbols(encode_symbols(symbols)), symbols)


def test_symbol_roundtrip_random():
    rng = np.random.default_rng(1)
    symbols = rng.integers(-200, 200, size=5000)
    assert np.array_equal(decode_symbols(encode_symbols(symbols)), symbols)


def test_skewed_distribution_compresses():
    rng = np.random.default_rng(2)
    # Mostly zeros: Huffman should beat the 8-byte raw representation easily.
    symbols = (rng.random(20000) > 0.97).astype(np.int64) * rng.integers(1, 4, 20000)
    encoded = encode_symbols(symbols)
    assert len(encoded) < symbols.nbytes / 4
    assert np.array_equal(decode_symbols(encoded), symbols)


def test_single_symbol_alphabet():
    symbols = np.full(100, 42, dtype=np.int64)
    assert np.array_equal(decode_symbols(encode_symbols(symbols)), symbols)


def test_empty_input():
    symbols = np.zeros(0, dtype=np.int64)
    assert decode_symbols(encode_symbols(symbols)).size == 0


def test_negative_and_large_symbols():
    symbols = np.array([-(2**40), 2**40, 0, -1, 1], dtype=np.int64)
    assert np.array_equal(decode_symbols(encode_symbols(symbols)), symbols)


def test_code_lengths_follow_frequencies():
    lengths = estimate_code_lengths({0: 1000, 1: 10, 2: 10, 3: 1})
    assert lengths[0] <= lengths[1]
    assert lengths[1] <= lengths[3]


def test_code_lengths_single_symbol():
    assert estimate_code_lengths({7: 99}) == {7: 1}


def test_bad_magic_rejected():
    with pytest.raises(StreamFormatError):
        decode_symbols(b"NOPE" + b"\x00" * 32)


# ------------------------------------------------------------ hostile bytes


def _header(n_symbols: int, table, total_bits: int) -> bytes:
    """A ``HUF1`` stream header claiming whatever the test wants."""
    out = b"HUF1" + struct.pack("<QI", n_symbols, len(table))
    for sym, length in table:
        out += struct.pack("<qB", sym, length)
    return out + struct.pack("<Q", total_bits)


_GOOD = encode_symbols(np.array([3, 3, 3, -1, 7, 3, -1, 3, 3, 7, 3], dtype=np.int64))

HOSTILE = {
    "truncated-header": _GOOD[:9],
    "truncated-code-table": _GOOD[:20],
    "n-symbols-2^40": _header(2**40, [(0, 1)], 8) + b"\x00",
    "total-bits-2^33": _header(4, [(0, 1)], 2**33) + b"\x00" * 16,
    "alphabet-2^32-1": b"HUF1" + struct.pack("<QI", 4, 2**32 - 1) + b"\x00" * 64,
    "payload-one-byte-short": _GOOD[:-1],
}


@pytest.mark.parametrize("blob", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_header_words_raise_before_any_allocation(blob):
    """The three stream-supplied sizes are checked against ``len(data)``:
    no ``struct.error``, no ``MemoryError``, no silent zero-padded decode —
    and no time spent allocating what the header merely claims."""
    start = time.perf_counter()
    with pytest.raises(StreamFormatError):
        decode_symbols(blob)
    assert time.perf_counter() - start < 1.0


def test_trailing_bytes_after_the_payload_are_ignored():
    assert np.array_equal(decode_symbols(_GOOD + b"\xff\xff"), decode_symbols(_GOOD))
