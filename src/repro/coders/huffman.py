"""Canonical Huffman coder.

The SZ3 baseline in the paper encodes quantization integers with Huffman
coding before handing the bit stream to zstd (§6.1.3).  This module provides
a from-scratch canonical Huffman implementation: the symbol-oriented
:func:`encode_symbols` / :func:`decode_symbols` pair used by the SZ3 and
MGARD baselines, which works on arbitrary integer alphabets and packs codes
with vectorised NumPy bit scatter so encoding large fields stays fast in
pure Python.

Canonical codes are used so the code table can be transmitted as just the
per-symbol code lengths.
"""

from __future__ import annotations

import heapq
import struct
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import StreamFormatError

_MAGIC = b"HUF1"


def _build_code_lengths(frequencies: Dict[int, int]) -> Dict[int, int]:
    """Return the Huffman code length of every symbol with non-zero frequency.

    A standard heap-based Huffman construction; ties are broken by symbol
    value so the result is deterministic across runs.
    """
    if not frequencies:
        return {}
    if len(frequencies) == 1:
        only = next(iter(frequencies))
        return {only: 1}

    heap: List[Tuple[int, int, Tuple[int, ...]]] = [
        (freq, sym, (sym,)) for sym, freq in frequencies.items()
    ]
    heapq.heapify(heap)
    depths: Dict[int, int] = {sym: 0 for sym in frequencies}
    while len(heap) > 1:
        f1, s1, group1 = heapq.heappop(heap)
        f2, s2, group2 = heapq.heappop(heap)
        for sym in group1 + group2:
            depths[sym] += 1
        heapq.heappush(heap, (f1 + f2, min(s1, s2), group1 + group2))
    return depths


def _canonical_codes(lengths: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
    """Assign canonical codes (value, length) from code lengths.

    Symbols are sorted by (length, symbol); codes are assigned in increasing
    numeric order, which lets the decoder rebuild the exact same table from
    lengths alone.
    """
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for sym, length in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        code <<= length - previous_length
        codes[sym] = (code, length)
        code += 1
        previous_length = length
    return codes


def scatter_code_bits(
    sym_codes: np.ndarray,
    sym_lengths: np.ndarray,
    offsets: np.ndarray,
    total_bits: int,
) -> np.ndarray:
    """Write variable-length codes (MSB first) into a flat bit array.

    Symbol ``i`` occupies bit positions ``offsets[i] … offsets[i] +
    sym_lengths[i] − 1``.
    """
    sym_codes = np.asarray(sym_codes, dtype=np.uint64)
    sym_lengths = np.asarray(sym_lengths, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    bits = np.zeros(int(total_bits), dtype=np.uint8)
    if sym_codes.size == 0:
        return bits
    # One vector pass per code-bit position instead of one per symbol:
    # the i-th emitted bit of a code is bit (length-1-i) of its value.
    for bit in range(int(sym_lengths.max())):
        active = sym_lengths > bit
        if not active.any():
            continue
        shift = (sym_lengths[active] - 1 - bit).astype(np.uint64)
        bit_vals = ((sym_codes[active] >> shift) & np.uint64(1)).astype(np.uint8)
        bits[offsets[active] + bit] = bit_vals
    return bits


def encode_symbols(symbols: np.ndarray) -> bytes:
    """Huffman-encode an integer array into a self-describing byte stream.

    The stream layout is::

        MAGIC | n_symbols:u64 | alphabet_size:u32 |
        (symbol:i64, length:u8) * alphabet_size | n_bits:u64 | packed bits

    The bit scatter (:func:`scatter_code_bits`) writes one bit position of
    every code per NumPy pass, so the cost is ``O(max_code_length)`` vector
    operations instead of a Python loop over all symbols.
    """
    flat = np.asarray(symbols).ravel()
    values, counts = np.unique(flat, return_counts=True)
    frequencies = {int(v): int(c) for v, c in zip(values, counts)}
    lengths = _build_code_lengths(frequencies)
    codes = _canonical_codes(lengths)

    header = bytearray()
    header += _MAGIC
    header += struct.pack("<QI", flat.size, len(codes))
    for sym in sorted(codes):
        header += struct.pack("<qB", sym, codes[sym][1])

    if flat.size == 0:
        header += struct.pack("<Q", 0)
        return bytes(header)

    # Vectorised code lookup.
    sorted_syms = np.array(sorted(codes), dtype=np.int64)
    code_values = np.array([codes[int(s)][0] for s in sorted_syms], dtype=np.uint64)
    code_lengths = np.array([codes[int(s)][1] for s in sorted_syms], dtype=np.uint8)
    idx = np.searchsorted(sorted_syms, flat)
    sym_codes = code_values[idx]
    sym_lengths = code_lengths[idx].astype(np.int64)

    offsets = np.zeros(flat.size, dtype=np.int64)
    np.cumsum(sym_lengths[:-1], out=offsets[1:])
    total_bits = int(offsets[-1] + sym_lengths[-1]) if flat.size else 0

    bits = scatter_code_bits(sym_codes, sym_lengths, offsets, total_bits)
    packed = np.packbits(bits, bitorder="little").tobytes()
    return bytes(header) + struct.pack("<Q", total_bits) + packed


def decode_symbols(data: bytes) -> np.ndarray:
    """Invert :func:`encode_symbols`, returning an ``int64`` array.

    ``data`` is untrusted: the three header words that size the symbol
    table, the bit payload and the output are checked against ``len(data)``
    before anything is allocated from them.
    """
    if data[:4] != _MAGIC:
        raise StreamFormatError("not a Huffman symbol stream")
    pos = 4
    if len(data) < pos + 12:
        raise StreamFormatError("Huffman stream header truncated")
    n_symbols, alphabet_size = struct.unpack_from("<QI", data, pos)
    pos += 12
    if len(data) < pos + 9 * alphabet_size + 8:
        raise StreamFormatError(
            f"Huffman stream of {len(data)} bytes cannot hold a "
            f"{alphabet_size}-symbol code table"
        )
    lengths: Dict[int, int] = {}
    for _ in range(alphabet_size):
        sym, length = struct.unpack_from("<qB", data, pos)
        pos += 9
        lengths[sym] = length
    (total_bits,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    payload_bytes = (total_bits + 7) // 8
    if payload_bytes > len(data) - pos:
        raise StreamFormatError(
            f"Huffman stream declares {total_bits} code bits but carries "
            f"{len(data) - pos} payload bytes"
        )
    if n_symbols > total_bits:  # every symbol costs at least one bit
        raise StreamFormatError(
            f"Huffman stream declares {n_symbols} symbols in {total_bits} bits"
        )

    if n_symbols == 0:
        return np.zeros(0, dtype=np.int64)

    codes = _canonical_codes(lengths)
    # Reverse map: (length, code value) -> symbol.
    decode_map: Dict[Tuple[int, int], int] = {
        (length, value): sym for sym, (value, length) in codes.items()
    }

    packed = np.frombuffer(data, dtype=np.uint8, count=payload_bytes, offset=pos)  # zero-copy
    bits = np.unpackbits(packed, count=total_bits, bitorder="little")

    out = np.empty(n_symbols, dtype=np.int64)
    value = 0
    length = 0
    produced = 0
    bit_list = bits.tolist()
    for bit in bit_list:
        value = (value << 1) | bit
        length += 1
        sym = decode_map.get((length, value))
        if sym is not None:
            out[produced] = sym
            produced += 1
            if produced == n_symbols:
                break
            value = 0
            length = 0
    if produced != n_symbols:
        raise StreamFormatError("Huffman stream truncated")
    return out


def estimate_code_lengths(frequencies: Dict[int, int]) -> Dict[int, int]:
    """Public helper exposing the code-length construction (used in tests)."""
    return _build_code_lengths(dict(frequencies))
