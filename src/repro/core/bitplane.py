"""Bitplane decomposition and predictive (XOR-prefix) bitplane coding.

Figure 4 of the paper: the quantized integers of every interpolation level are
viewed as a matrix of bits; all bits occupying the same position across the
level form a *bitplane*.  Planes are stored most-significant first so that a
prefix of the plane sequence is exactly a truncated-precision version of the
level.

§4.4.1 then removes the correlation between consecutive planes of the same
integer with predictive coding: the value of a bit is predicted as the XOR of
its ``prefix_bits`` previously-loaded (more significant) bits and only the
prediction error is stored.  Two prefix bits minimise the entropy on the
paper's datasets (Table 2), so 2 is the default here.

These are the *unpacked-bit* primitives — planes as ``uint8`` 0/1 matrices —
each a constant number of NumPy bulk passes.  The codec's own hot path never
materialises a bit matrix (it runs the same chain as one packed-domain sweep,
:mod:`repro.core.kernels`); the callers here are the ZFP baseline, the
Huffman coder and the Table 2 entropy analysis.  Planes are ``(nplanes, n)``
with row 0 the most significant plane; packed bits use little-endian bit
order within each byte.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

DEFAULT_PREFIX_BITS = 2


def check_prefix_bits(prefix_bits: int) -> None:
    """Reject a prefix-bit count outside the coder's ``[0, 3]`` range."""
    if not 0 <= prefix_bits <= 3:
        raise ConfigurationError("prefix_bits must be in [0, 3]")


def extract_bitplanes(codes: np.ndarray, nbits: int) -> np.ndarray:
    """Split unsigned codes into ``nbits`` bitplanes.

    Parameters
    ----------
    codes:
        1-D ``uint64`` array of negabinary codes.
    nbits:
        Number of planes to produce; must cover the largest code.

    Returns
    -------
    ndarray
        ``uint8`` array of shape ``(nbits, n)``.  Row 0 is the most
        significant plane (bit position ``nbits − 1``), row ``nbits − 1`` the
        least significant — i.e. rows are in *load order*.
    """
    if nbits < 1 or nbits > 64:
        raise ConfigurationError("nbits must be in [1, 64]")
    codes = np.ascontiguousarray(np.asarray(codes).ravel(), dtype="<u8")
    n = codes.size
    if n == 0:
        return np.empty((nbits, 0), dtype=np.uint8)
    nbytes = (nbits + 7) // 8
    # One C pass: low `nbytes` bytes of each code → per-value bit rows.
    byte_view = codes.view(np.uint8).reshape(n, 8)[:, :nbytes]
    bits = np.unpackbits(byte_view, axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, nbits - 1 :: -1].T)


def assemble_bitplanes(planes: np.ndarray, nbits: int) -> np.ndarray:
    """Rebuild codes from the first ``planes.shape[0]`` (most significant) planes.

    Missing (unloaded) low planes are treated as zero, matching the partial
    retrieval semantics of §4.3.
    """
    planes = np.asarray(planes, dtype=np.uint8)
    loaded = planes.shape[0]
    if loaded > nbits:
        raise ConfigurationError("more planes supplied than the level width")
    n = planes.shape[1] if planes.ndim == 2 else 0
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    nbytes = (nbits + 7) // 8
    bits = np.zeros((n, 8 * nbytes), dtype=np.uint8)
    if loaded:
        bits[:, nbits - 1 - np.arange(loaded)] = planes.T
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((n, 8), dtype=np.uint8)
    out[:, :nbytes] = packed
    return out.reshape(-1).view("<u8").astype(np.uint64, copy=False)


def predictive_encode(
    planes: np.ndarray, prefix_bits: int = DEFAULT_PREFIX_BITS
) -> np.ndarray:
    """XOR-predict every plane from its ``prefix_bits`` predecessors.

    ``encoded[k] = planes[k] ^ planes[k-1] ^ ... ^ planes[k-prefix_bits]``
    (with fewer terms near the top).  ``prefix_bits = 0`` is the identity.
    """
    check_prefix_bits(prefix_bits)
    planes = np.asarray(planes, dtype=np.uint8)
    encoded = planes.copy()
    for j in range(1, prefix_bits + 1):
        if planes.shape[0] > j:
            encoded[j:] ^= planes[:-j]
    return encoded


def predictive_decode(
    encoded: np.ndarray, prefix_bits: int = DEFAULT_PREFIX_BITS
) -> np.ndarray:
    """Invert :func:`predictive_encode` plane by plane (top to bottom).

    Decoding only needs the *already decoded* more-significant planes, which is
    precisely why the scheme is compatible with progressive loading: the
    planes available at retrieval time are always a prefix of the sequence.
    """
    check_prefix_bits(prefix_bits)
    encoded = np.asarray(encoded, dtype=np.uint8)
    if prefix_bits == 0 or encoded.shape[0] <= 1:
        return encoded.copy()
    if prefix_bits == 1:
        # The recurrence collapses to a cumulative XOR down the planes.
        return np.bitwise_xor.accumulate(encoded, axis=0)
    planes = encoded.copy()
    for k in range(1, planes.shape[0]):
        for j in range(1, prefix_bits + 1):
            if k - j >= 0:
                planes[k] ^= planes[k - j]
    return planes


def pack_plane(plane: np.ndarray) -> bytes:
    """Pack one bitplane (uint8 0/1 values) into bytes, little-endian bit order."""
    return np.packbits(np.asarray(plane, dtype=np.uint8), bitorder="little").tobytes()


def unpack_plane(data: bytes, count: int) -> np.ndarray:
    """Invert :func:`pack_plane`, recovering exactly ``count`` bits."""
    packed = np.frombuffer(data, dtype=np.uint8)
    return np.unpackbits(packed, count=count, bitorder="little")


def scatter_code_bits(
    sym_codes: np.ndarray,
    sym_lengths: np.ndarray,
    offsets: np.ndarray,
    total_bits: int,
) -> np.ndarray:
    """Write variable-length codes (MSB first) into a flat bit array.

    Symbol ``i`` occupies bit positions ``offsets[i] … offsets[i] +
    sym_lengths[i] − 1``; this is the hot scatter of the canonical
    Huffman encoder (:mod:`repro.coders.huffman`).
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
