"""The loop oracle: the paper's pseudocode, one bit and one level at a time.

This is the test-side half of the codec's one byte-identity contract: the
C plane chain of :mod:`repro.core.kernels` (and the arithmetic
of :class:`~repro.core.quantizer.LinearQuantizer`, the maps of
:mod:`repro.core.negabinary`, the Huffman coder's bit scatter) must agree
with these loops exactly.  Nothing
in ``src/`` imports it.

Deliberately naive — per-plane shifts, per-bit packing, per-element
base-(−2) digit expansion — so its correctness is auditable by eye.
:meth:`OracleKernel.encode_planes` / :meth:`~OracleKernel.decode_planes`
(and :meth:`~OracleKernel.decode_shard`) have the signature of the production hooks but never see more than one level
at a time, so a test can substitute the oracle for the production instance
(``monkeypatch.setattr(repro.core.kernels, "_KERNEL", OracleKernel())``).
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.negabinary import required_bits_from_codes
from repro.errors import ConfigurationError, StreamFormatError

_U64_MASK = (1 << 64) - 1


def _check_nbits(nbits: int) -> None:
    if nbits < 1 or nbits > 64:
        raise ConfigurationError("nbits must be in [1, 64]")


def _check_prefix_bits(prefix_bits: int) -> None:
    if not 0 <= prefix_bits <= 3:
        raise ConfigurationError("prefix_bits must be in [0, 3]")


class OracleKernel:
    """Every bit-level operation of the codec as a straightforward loop.

    Planes are ``uint8`` 0/1 matrices of shape ``(nplanes, n)`` with row 0
    the most significant plane, packed bits use little-endian bit order within each
    byte, and negabinary codes are ``uint64``.
    """

    name = "oracle"

    # ------------------------------------------------------------ bitplanes

    def extract_bitplanes(self, codes: np.ndarray, nbits: int) -> np.ndarray:
        _check_nbits(nbits)
        codes = np.asarray(codes, dtype=np.uint64).ravel()
        planes = np.empty((nbits, codes.size), dtype=np.uint8)
        for row, bit_position in enumerate(range(nbits - 1, -1, -1)):
            planes[row] = ((codes >> np.uint64(bit_position)) & np.uint64(1)).astype(
                np.uint8
            )
        return planes

    def assemble_bitplanes(self, planes: np.ndarray, nbits: int) -> np.ndarray:
        planes = np.asarray(planes, dtype=np.uint8)
        loaded = planes.shape[0]
        if loaded > nbits:
            raise ConfigurationError("more planes supplied than the level width")
        n = planes.shape[1] if planes.ndim == 2 else 0
        codes = np.zeros(n, dtype=np.uint64)
        for row in range(loaded):
            bit_position = nbits - 1 - row
            codes |= planes[row].astype(np.uint64) << np.uint64(bit_position)
        return codes

    def predictive_encode(self, planes: np.ndarray, prefix_bits: int) -> np.ndarray:
        _check_prefix_bits(prefix_bits)
        planes = np.asarray(planes, dtype=np.uint8)
        encoded = planes.copy()
        for k in range(planes.shape[0]):
            for j in range(1, prefix_bits + 1):
                if k - j >= 0:
                    encoded[k] ^= planes[k - j]
        return encoded

    def predictive_decode(self, encoded: np.ndarray, prefix_bits: int) -> np.ndarray:
        _check_prefix_bits(prefix_bits)
        encoded = np.asarray(encoded, dtype=np.uint8)
        planes = encoded.copy()
        for k in range(encoded.shape[0]):
            for j in range(1, prefix_bits + 1):
                if k - j >= 0:
                    planes[k] ^= planes[k - j]
        return planes

    # ------------------------------------------------------------- bit pack

    def pack_bits(self, bits: np.ndarray) -> bytes:
        # LSB-first within each byte; the final partial byte is zero-padded.
        buffer = bytearray()
        accumulator = 0
        nbits = 0
        for bit in np.asarray(bits, dtype=np.uint8).ravel().tolist():
            accumulator |= (bit & 1) << nbits
            nbits += 1
            if nbits == 8:
                buffer.append(accumulator)
                accumulator = 0
                nbits = 0
        if nbits:
            buffer.append(accumulator)
        return bytes(buffer)

    def unpack_bits(self, data: bytes, count: int) -> np.ndarray:
        bits = []
        for pos in range(count):
            byte_index, bit_index = divmod(pos, 8)
            if byte_index >= len(data):
                raise StreamFormatError("bit stream exhausted")
            bits.append((data[byte_index] >> bit_index) & 1)
        return np.array(bits, dtype=np.uint8)

    def scatter_code_bits(
        self,
        sym_codes: np.ndarray,
        sym_lengths: np.ndarray,
        offsets: np.ndarray,
        total_bits: int,
    ) -> np.ndarray:
        bits = np.zeros(int(total_bits), dtype=np.uint8)
        pairs = zip(
            np.asarray(sym_codes).tolist(),
            np.asarray(sym_lengths).tolist(),
            np.asarray(offsets).tolist(),
        )
        for code, length, offset in pairs:
            for i in range(length):
                bits[offset + i] = (code >> (length - 1 - i)) & 1
        return bits

    # ----------------------------------------------------------- negabinary

    def to_negabinary(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        out = np.empty(values.size, dtype=np.uint64)
        for i, v in enumerate(values.ravel().tolist()):
            code = 0
            # Classic base-(−2) digit expansion, truncated to 64 digits to
            # match the modulo-2^64 alternating-mask bijection.
            for position in range(64):
                if v == 0:
                    break
                digit = v & 1
                code |= digit << position
                v = (v - digit) // -2
            out[i] = code & _U64_MASK
        return out.reshape(values.shape)

    def from_negabinary(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.uint64)
        out = np.empty(codes.size, dtype=np.int64)
        for i, code in enumerate(codes.ravel().tolist()):
            total = 0
            position = 0
            while code:
                if code & 1:
                    total += (-2) ** position
                code >>= 1
                position += 1
            total &= _U64_MASK
            if total >= 1 << 63:
                total -= 1 << 64
            out[i] = total
        return out.reshape(codes.shape)

    # --------------------------------------------------------- quantization

    def quantize(self, values: np.ndarray, bin_width: float) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        # Python's round() is round-half-to-even on floats, same as np.rint.
        half = 0.5 * bin_width
        quantized = []
        for v in values.ravel().tolist():
            q = round(v / bin_width)
            # Same half-bin correction as LinearQuantizer.quantize (the two
            # must stay byte-identical): enforce |v − q·w| ≤ w/2 in the
            # decoder's float64 arithmetic.
            for _ in range(2):
                err = v - q * bin_width
                if err > half:
                    q += 1
                elif err < -half:
                    q -= 1
                else:
                    break
            quantized.append(q)
        return np.array(quantized, dtype=np.int64).reshape(values.shape)

    def dequantize(self, codes: np.ndarray, bin_width: float) -> np.ndarray:
        codes = np.asarray(codes)
        dequantized = [c * bin_width for c in codes.ravel().tolist()]
        return np.array(dequantized, dtype=np.float64).reshape(codes.shape)

    # ------------------------------------------------------- shard-wide hooks

    def encode_planes(
        self, levels: Sequence[np.ndarray], prefix_bits: int
    ) -> List[Tuple[int, List[bytes]]]:
        """One ``(nbits, blocks)`` pair per level, each level on its own."""
        _check_prefix_bits(prefix_bits)
        return [self._encode_level(codes, prefix_bits) for codes in levels]

    def decode_planes(self, rows: np.ndarray, levels, prefix_bits: int) -> List[np.ndarray]:
        """``int64`` codes per level of the row buffer ``rows``, one level at
        a time; ``levels`` holds ``(offset, keep, count, nbits)`` per level."""
        _check_prefix_bits(prefix_bits)
        decoded = []
        for offset, keep, count, nbits in zip(*[iter(levels)] * 4):
            nbytes = (count + 7) // 8
            raw_planes = [
                bytes(rows[offset + r * nbytes : offset + (r + 1) * nbytes]) for r in range(keep)
            ]
            decoded.append(self._decode_level(raw_planes, count, nbits, prefix_bits))
        return decoded

    def decode_shard(self, rows: np.ndarray, levels, prefix_bits: int) -> np.ndarray:
        """:meth:`decode_planes`' levels end to end in one ``int64`` array."""
        decoded = self.decode_planes(rows, levels, prefix_bits)
        return np.concatenate(decoded) if decoded else np.zeros(0, dtype=np.int64)

    def _encode_level(
        self, codes: np.ndarray, prefix_bits: int
    ) -> Tuple[int, List[bytes]]:
        """One level of :meth:`encode_planes`, from the primitive methods."""
        codes = np.asarray(codes, dtype=np.int64).ravel()
        negabinary = self.to_negabinary(codes)
        nbits = required_bits_from_codes(negabinary)
        planes = self.extract_bitplanes(negabinary, nbits)
        predicted = self.predictive_encode(planes, prefix_bits)
        return nbits, [self.pack_bits(plane) for plane in predicted]

    def _decode_level(
        self,
        raw_planes: Sequence[bytes],
        count: int,
        nbits: int,
        prefix_bits: int,
    ) -> np.ndarray:
        """One level of :meth:`decode_planes`, from the primitive methods."""
        keep = len(raw_planes)
        if count == 0 or keep == 0:
            return np.zeros(count, dtype=np.int64)
        encoded = np.empty((keep, count), dtype=np.uint8)
        for row, raw in enumerate(raw_planes):
            encoded[row] = self.unpack_bits(raw, count)
        planes = self.predictive_decode(encoded, prefix_bits)
        return self.from_negabinary(self.assemble_bitplanes(planes, nbits))


def plane_rows(blocks: Sequence[bytes], count: int) -> np.ndarray:
    """Packed plane rows (``encode_planes``' blocks) as one
    ``(len(blocks), ceil(count / 8))`` ``uint8`` array."""
    return np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(len(blocks), (count + 7) // 8)


def shard_rows(levels) -> Tuple[np.ndarray, array]:
    """``decode_planes``' first two arguments from levels given as
    ``(planes, count, nbits)``, ``planes`` a level's loaded plane blocks or
    its rows as one array: the one row buffer, every level's rows after the
    last's, and the level table, ``(offset, keep, count, nbits)`` a level."""
    parts, table, offset = [], array("q"), 0
    for planes, count, nbits in levels:
        data = planes.tobytes() if isinstance(planes, np.ndarray) else b"".join(planes)
        table.extend((offset, len(planes), count, nbits))
        parts.append(data)
        offset += len(data)
    return np.frombuffer(b"".join(parts), dtype=np.uint8), table
