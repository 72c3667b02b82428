"""Kernel dispatch layer for the bit-level hot paths of IPComp.

Every operation on the critical encode/decode path — bitplane
transposition, XOR-prefix predictive coding, negabinary conversion,
error-bounded quantization, bit packing, and the Huffman code-bit scatter
— is expressed here as a method of a :class:`Kernel` and resolved through a
registry, mirroring the pluggable lossless-backend registry of
:mod:`repro.coders.backend`:

* ``"vectorized"`` implements every operation as a constant number of
  NumPy bulk passes: one ``np.unpackbits`` per bitplane transpose instead
  of one shift/mask pass per plane, one ``np.packbits`` per reassembly,
  and at most ``prefix_bits`` whole-matrix XORs for the predictive coder.
  It is the always-constructible fallback of ``"auto"`` and the base the
  arena kernels inherit their primitive operations from.
* ``"reference"`` spells the same operations out as straightforward
  Python loops that follow the paper's pseudocode bit by bit.  It exists
  as a correctness oracle: the differential tests assert that both
  kernels produce **byte-identical** streams, and the Figure 8 benchmark
  reports the throughput gap between them.
* ``"fused"`` runs the whole per-level encode chain — negabinary →
  bitplane transpose → XOR prediction → per-plane packing — as **one
  sweep in the packed byte domain** (:meth:`Kernel.encode_planes` /
  :meth:`Kernel.decode_planes`), reusing a per-instance buffer arena
  across levels and planes instead of materialising fresh intermediates.
  The trick is that XOR prediction commutes with bit packing (pad bits
  are zero on both sides), so prediction runs on the 8×-smaller packed
  rows and the whole level needs a single ``np.packbits`` call.  Output
  bytes are asserted identical to both other kernels.
* ``"compiled"`` (optional, the ``[compiled]`` pip extra) is the numba
  ``@njit(parallel=True)`` port of the fused sweep
  (:mod:`repro.core.kernels_compiled`): the same carry-free 8×8 bit-block
  transpose, compiled to machine code with the independent byte columns
  parallelised across cores.  It is registered behind a lazy import — on
  a machine without numba, requesting it raises a
  :class:`~repro.errors.ConfigurationError` naming the extra.
* ``"auto"`` (the default) resolves, at first use, to the fastest backend
  available on the machine — ``compiled`` > ``fused`` > ``vectorized``
  (see :func:`resolve_auto_kernel`) — so every default-argument caller
  gets the packed-domain sweep without knowing what is installed.

The simple kernels are stateless and the arena-backed kernels (fused,
compiled) keep their grow-only scratch *per thread*
(:class:`ArenaKernel`); :func:`get_kernel` caches one instance per
registered name, and that shared instance is decoded on concurrently by
``RetrievalService --threads``, so per-thread scratch is a correctness
requirement, not an optimisation.  New kernels (e.g. a future C/Cython or
GPU backend) are added with :func:`register_kernel` and become selectable
everywhere a ``kernel=`` argument is threaded through —
:class:`repro.IPComp`, :class:`repro.ProgressiveRetriever`, the predictive
coder, the Huffman coder, and the ``ipcomp`` CLI.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.coders.bitio import BitReader, BitWriter  # reference kernel substrate
from repro.core.negabinary import from_negabinary as _nb_decode
from repro.core.negabinary import required_bits_from_codes as _nb_required_bits
from repro.core.negabinary import to_negabinary as _nb_encode
from repro.errors import ConfigurationError

#: Name of the kernel used when none is requested explicitly: the
#: self-resolving ``"auto"`` (see :func:`resolve_auto_kernel`).
DEFAULT_KERNEL = "auto"

_U64_MASK = (1 << 64) - 1


def _check_nbits(nbits: int) -> None:
    if nbits < 1 or nbits > 64:
        raise ConfigurationError("nbits must be in [1, 64]")


def _check_prefix_bits(prefix_bits: int) -> None:
    if not 0 <= prefix_bits <= 3:
        raise ConfigurationError("prefix_bits must be in [0, 3]")


class Kernel:
    """Abstract bit-level kernel; see the module docstring for the contract.

    All array arguments/returns follow the conventions of
    :mod:`repro.core.bitplane`: planes are ``uint8`` matrices of shape
    ``(nplanes, n)`` with row 0 the most significant plane, packed bits use
    little-endian bit order within each byte, and negabinary codes are
    ``uint64`` with value semantics identical to the alternating-mask maps
    of :mod:`repro.core.negabinary`.
    """

    name: str

    # ------------------------------------------------------------ bitplanes

    def extract_bitplanes(self, codes: np.ndarray, nbits: int) -> np.ndarray:
        """Split unsigned codes into ``nbits`` planes, most significant first."""
        raise NotImplementedError

    def assemble_bitplanes(self, planes: np.ndarray, nbits: int) -> np.ndarray:
        """Rebuild codes from the loaded (most significant) planes."""
        raise NotImplementedError

    def predictive_encode(self, planes: np.ndarray, prefix_bits: int) -> np.ndarray:
        """XOR-predict every plane from its ``prefix_bits`` predecessors."""
        raise NotImplementedError

    def predictive_decode(self, encoded: np.ndarray, prefix_bits: int) -> np.ndarray:
        """Invert :meth:`predictive_encode` plane by plane, top to bottom."""
        raise NotImplementedError

    # ------------------------------------------------------------- bit pack

    def pack_bits(self, bits: np.ndarray) -> bytes:
        """Pack 0/1 values into bytes, little-endian bit order."""
        raise NotImplementedError

    def unpack_bits(self, data: bytes, count: int) -> np.ndarray:
        """Invert :meth:`pack_bits`, recovering exactly ``count`` bits."""
        raise NotImplementedError

    def scatter_code_bits(
        self,
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
        raise NotImplementedError

    # ----------------------------------------------------------- negabinary

    def to_negabinary(self, values: np.ndarray) -> np.ndarray:
        """Signed integers → negabinary codes (``uint64``)."""
        raise NotImplementedError

    def from_negabinary(self, codes: np.ndarray) -> np.ndarray:
        """Negabinary codes → signed integers (``int64``)."""
        raise NotImplementedError

    # --------------------------------------------------------- quantization

    def quantize(self, values: np.ndarray, bin_width: float) -> np.ndarray:
        """Mid-tread quantization: ``round(values / bin_width)`` as int64."""
        raise NotImplementedError

    def dequantize(self, codes: np.ndarray, bin_width: float) -> np.ndarray:
        """Bin index → bin-centre value (float64)."""
        raise NotImplementedError

    # ------------------------------------------------------- fused pipelines

    def encode_planes(
        self, codes: np.ndarray, prefix_bits: int
    ) -> Tuple[int, List[bytes]]:
        """One level's full plane-encode chain: codes → packed plane blocks.

        Runs negabinary conversion, bitplane transposition, XOR prediction
        and per-plane bit packing; returns ``(nbits, blocks)`` with one
        packed byte string per plane, most significant first.  The default
        implementation composes the four primitive kernel methods, so every
        kernel gets the hook for free; :class:`FusedKernel` overrides it
        with a single-sweep implementation.  All implementations must emit
        byte-identical blocks.
        """
        codes = np.asarray(codes, dtype=np.int64).ravel()
        negabinary = self.to_negabinary(codes)
        nbits = _nb_required_bits(negabinary)
        planes = self.extract_bitplanes(negabinary, nbits)
        predicted = self.predictive_encode(planes, prefix_bits)
        return nbits, [self.pack_bits(plane) for plane in predicted]

    def decode_planes(
        self,
        raw_planes: Sequence[bytes],
        count: int,
        nbits: int,
        prefix_bits: int,
    ) -> np.ndarray:
        """Invert :meth:`encode_planes` for the loaded plane prefix.

        ``raw_planes`` are the losslessly *decoded* packed plane byte
        strings (most significant first); unloaded low planes are treated
        as zero.  Returns the ``int64`` quantization codes.
        """
        keep = len(raw_planes)
        if count == 0 or keep == 0:
            return np.zeros(count, dtype=np.int64)
        encoded = np.empty((keep, count), dtype=np.uint8)
        for row, raw in enumerate(raw_planes):
            encoded[row] = self.unpack_bits(raw, count)
        planes = self.predictive_decode(encoded, prefix_bits)
        return self.from_negabinary(self.assemble_bitplanes(planes, nbits))


class VectorizedKernel(Kernel):
    """NumPy bulk-operation kernel: constant number of C passes per call."""

    name = "vectorized"

    # ------------------------------------------------------------ bitplanes

    def extract_bitplanes(self, codes: np.ndarray, nbits: int) -> np.ndarray:
        _check_nbits(nbits)
        codes = np.ascontiguousarray(np.asarray(codes).ravel(), dtype="<u8")
        n = codes.size
        if n == 0:
            return np.empty((nbits, 0), dtype=np.uint8)
        nbytes = (nbits + 7) // 8
        # One C pass: low `nbytes` bytes of each code → per-value bit rows.
        byte_view = codes.view(np.uint8).reshape(n, 8)[:, :nbytes]
        bits = np.unpackbits(byte_view, axis=1, bitorder="little")
        return np.ascontiguousarray(bits[:, nbits - 1 :: -1].T)

    def assemble_bitplanes(self, planes: np.ndarray, nbits: int) -> np.ndarray:
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

    def predictive_encode(self, planes: np.ndarray, prefix_bits: int) -> np.ndarray:
        _check_prefix_bits(prefix_bits)
        planes = np.asarray(planes, dtype=np.uint8)
        encoded = planes.copy()
        for j in range(1, prefix_bits + 1):
            if planes.shape[0] > j:
                encoded[j:] ^= planes[:-j]
        return encoded

    def predictive_decode(self, encoded: np.ndarray, prefix_bits: int) -> np.ndarray:
        _check_prefix_bits(prefix_bits)
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

    # ------------------------------------------------------------- bit pack

    def pack_bits(self, bits: np.ndarray) -> bytes:
        # Same bytes as BitWriter.write_bit_array on a fresh writer, minus
        # the writer's buffer copies — this is the hot per-plane path.
        return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()

    def unpack_bits(self, data: bytes, count: int) -> np.ndarray:
        packed = np.frombuffer(data, dtype=np.uint8)
        return np.unpackbits(packed, count=count, bitorder="little")

    def scatter_code_bits(
        self,
        sym_codes: np.ndarray,
        sym_lengths: np.ndarray,
        offsets: np.ndarray,
        total_bits: int,
    ) -> np.ndarray:
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

    # ----------------------------------------------------------- negabinary

    def to_negabinary(self, values: np.ndarray) -> np.ndarray:
        return _nb_encode(values)

    def from_negabinary(self, codes: np.ndarray) -> np.ndarray:
        return _nb_decode(codes)

    # --------------------------------------------------------- quantization

    def quantize(self, values: np.ndarray, bin_width: float) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        codes = np.rint(values / bin_width).astype(np.int64)
        # Rounding in the divide can land on the wrong side of a half-bin
        # boundary when |value| / bin_width approaches 2^52, so the decoder's
        # reconstruction (codes · bin_width, computed in float64) could
        # overshoot the half-bin error bound by a few ulps.  Nudge offending
        # codes until the bound holds in the decoder's own arithmetic.
        half = 0.5 * bin_width
        for _ in range(2):
            err = values - codes.astype(np.float64) * bin_width
            mask = np.abs(err) > half
            if not mask.any():
                break
            codes = codes + np.where(mask, np.sign(err).astype(np.int64), 0)
        return codes

    def dequantize(self, codes: np.ndarray, bin_width: float) -> np.ndarray:
        return np.asarray(codes, dtype=np.float64) * bin_width


class ReferenceKernel(Kernel):
    """Loop-based oracle kernel: the paper's pseudocode, one bit at a time.

    Deliberately naive — per-plane shifts, per-bit packing, per-element
    base-(−2) digit expansion — so its correctness is auditable by eye.
    The differential tests hold :class:`VectorizedKernel` to byte-exact
    agreement with this implementation.
    """

    name = "reference"

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
        writer = BitWriter()
        for bit in np.asarray(bits, dtype=np.uint8).ravel().tolist():
            writer.write_bit(bit)
        return writer.getvalue()

    def unpack_bits(self, data: bytes, count: int) -> np.ndarray:
        reader = BitReader(data)
        return np.array([reader.read_bit() for _ in range(count)], dtype=np.uint8)

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
            # Same half-bin correction as the vectorized kernel (the two
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


class _BufferArena:
    """Grow-only scratch buffers, keyed by role.

    The fused kernel reuses one arena across every level and plane it
    encodes, so the hot path allocates only when a level is larger than any
    level seen before.  Buffers are pure scratch: nothing returned to a
    caller aliases an arena buffer (block bytes are materialised with
    ``tobytes``; decoded codes come out of ``packbits``/``view`` copies).
    :class:`FusedKernel` keeps one arena *per thread* — ``get_kernel``
    caches a single process-wide instance, and two threads sweeping the
    same buffers would silently corrupt each other's streams.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(self, key: str, shape: Tuple[int, ...], dtype=np.uint8) -> np.ndarray:
        needed = 1
        for extent in shape:
            needed *= int(extent)
        buf = self._buffers.get(key)
        if buf is None or buf.size < needed or buf.dtype != np.dtype(dtype):
            buf = np.empty(max(needed, 1), dtype=dtype)
            self._buffers[key] = buf
        return buf[:needed].reshape(shape)


class ArenaKernel(VectorizedKernel):
    """Base for kernels that sweep over grow-only scratch buffers.

    :func:`get_kernel` caches **one** instance per registered name and the
    serving layer (``RetrievalService --threads``) decodes concurrently on
    that shared instance, so arena state must be per thread: two threads
    sweeping the same buffers would silently corrupt each other's streams.
    Subclasses reach their scratch exclusively through :attr:`_arena`,
    which lazily creates one :class:`_BufferArena` per thread; nothing a
    subclass returns may alias an arena buffer (materialise block bytes
    with ``tobytes`` and decoded arrays with a copying conversion).
    """

    def __init__(self) -> None:
        self._thread_state = threading.local()

    @property
    def _arena(self) -> _BufferArena:
        arena = getattr(self._thread_state, "arena", None)
        if arena is None:
            arena = self._thread_state.arena = _BufferArena()
        return arena


#: Per-byte LSB mask / bit-gather multiplier of the 8×8 bit-block
#: transpose (Hacker's Delight ``transpose8``): with ``t`` holding one
#: 0/1 bit in every byte's LSB, ``(t * _TRANSPOSE_MAGIC) >> 56`` packs
#: byte ``i``'s bit into output bit ``i`` — carry-free, because each
#: output bit position receives exactly one contribution.
_TRANSPOSE_MASK = np.uint64(0x0101010101010101)
_TRANSPOSE_MAGIC = np.uint64(0x0102040810204080)
_U64_SHIFTS = [np.uint64(s) for s in range(64)]


class FusedKernel(ArenaKernel):
    """Single-sweep plane pipeline over a reusable buffer arena.

    The primitive operations are inherited from :class:`VectorizedKernel`
    (they already are single bulk passes), but the per-level pipelines are
    overridden to run entirely in the *packed* byte domain.  The insight is
    that ``extract_bitplanes`` + ``pack_bits`` (and their inverses) compose
    to a **bit-matrix transpose** — ``n × nbits`` value-major bits to
    ``nbits × n`` plane-major bits — and an 8×8 bit-block transpose has a
    carry-free multiply implementation that never materialises the
    ``n × nbits`` bit matrix at all:

    * **encode** — for every code byte, the 8 values of a block collapse
      into one ``uint64``; eight shift/mask/multiply passes emit the eight
      packed plane rows directly.  The XOR prediction then runs on the
      packed rows — 8× less data than the bit-domain XOR — and every
      intermediate lives in the arena, reused across levels.
    * **decode** — the losslessly-decoded plane bytes are laid into one
      arena matrix, un-predicted in the packed domain, and pushed through
      the same (involutive) block transpose straight back into value
      bytes; the reconstructed codes never pass through a bit matrix
      either.

    Byte identity with the other kernels holds because the block transpose
    reproduces ``np.packbits``'s little-endian bit placement exactly and
    the zero padding of the trailing partial block matches ``packbits``'s
    zero-filled pad bits (and XOR before or after packing is the same
    operation: 0⊕0 pads stay 0).
    """

    name = "fused"

    # ------------------------------------------------------- fused pipelines

    def encode_planes(
        self, codes: np.ndarray, prefix_bits: int
    ) -> Tuple[int, List[bytes]]:
        _check_prefix_bits(prefix_bits)
        codes = np.asarray(codes, dtype=np.int64).ravel()
        negabinary = _nb_encode(codes)
        nbits = _nb_required_bits(negabinary)
        n = codes.size
        if n == 0:
            return nbits, [b""] * nbits
        arena = self._arena
        row_bytes = (n + 7) // 8  # packed plane row length
        npad = 8 * row_bytes
        padded = arena.take("encode.codes", (npad,), np.uint64)
        padded[:n] = negabinary
        padded[n:] = 0
        packed = arena.take("encode.packed", (nbits, row_bytes))
        shifted = arena.take("encode.shifted", (npad,), np.uint64)
        block_bytes = arena.take("encode.block", (npad,), np.uint8)
        gathered = arena.take("encode.gather", (row_bytes,), np.uint64)
        for j in range((nbits + 7) // 8):
            # One uint64 per block of 8 values, holding code byte j of each.
            np.right_shift(padded, _U64_SHIFTS[8 * j], out=shifted)
            np.copyto(block_bytes, shifted, casting="unsafe")  # low bytes
            blocks = block_bytes.view("<u8")
            for k in range(8):
                position = 8 * j + k
                if position >= nbits:
                    break
                np.right_shift(blocks, _U64_SHIFTS[k], out=gathered)
                gathered &= _TRANSPOSE_MASK
                gathered *= _TRANSPOSE_MAGIC
                np.right_shift(gathered, _U64_SHIFTS[56], out=gathered)
                np.copyto(packed[nbits - 1 - position], gathered, casting="unsafe")
        predicted = arena.take("encode.predicted", (nbits, row_bytes))
        np.copyto(predicted, packed)
        for j in range(1, prefix_bits + 1):
            if nbits > j:
                np.bitwise_xor(packed[:-j], predicted[j:], out=predicted[j:])
        return nbits, [predicted[row].tobytes() for row in range(nbits)]

    def decode_planes(
        self,
        raw_planes: Sequence[bytes],
        count: int,
        nbits: int,
        prefix_bits: int,
    ) -> np.ndarray:
        _check_prefix_bits(prefix_bits)
        keep = len(raw_planes)
        if count == 0 or keep == 0:
            return np.zeros(count, dtype=np.int64)
        arena = self._arena
        row_bytes = (count + 7) // 8
        packed = arena.take("decode.packed", (keep, row_bytes))
        for row, raw in enumerate(raw_planes):
            buf = np.frombuffer(raw, dtype=np.uint8)
            if buf.size < row_bytes:
                # Short block: surface the same error the per-plane
                # unpack path raises (np.unpackbits count > available).
                self.unpack_bits(raw, count)
            packed[row] = buf[:row_bytes]
        if prefix_bits == 1:
            np.bitwise_xor.accumulate(packed, axis=0, out=packed)
        elif prefix_bits:
            for k in range(1, keep):
                for j in range(1, prefix_bits + 1):
                    if k - j >= 0:
                        packed[k] ^= packed[k - j]
        # Inverse block transpose: plane rows → per-value code bytes.
        npad = 8 * row_bytes
        value_bytes = arena.take("decode.values", (npad, 8))
        value_bytes[:] = 0
        value_blocks = value_bytes.reshape(row_bytes, 8, 8)
        blocks = arena.take("decode.blocks", (row_bytes,), np.uint64)
        gathered = arena.take("decode.gather", (row_bytes,), np.uint64)
        lifted = arena.take("decode.lift", (row_bytes,), np.uint64)
        for j in range((nbits + 7) // 8):
            blocks[:] = 0
            for k in range(8):
                position = 8 * j + k
                row = nbits - 1 - position
                if position >= nbits or row >= keep:
                    continue  # beyond the level width / not loaded → zero
                np.copyto(lifted, packed[row], casting="unsafe")
                lifted <<= _U64_SHIFTS[8 * k]
                blocks |= lifted
            for i in range(8):
                np.right_shift(blocks, _U64_SHIFTS[i], out=gathered)
                gathered &= _TRANSPOSE_MASK
                gathered *= _TRANSPOSE_MAGIC
                np.right_shift(gathered, _U64_SHIFTS[56], out=gathered)
                np.copyto(value_blocks[:, i, j], gathered, casting="unsafe")
        codes = value_bytes.reshape(-1).view("<u8")[:count]
        return self.from_negabinary(codes.astype(np.uint64))


# --------------------------------------------------------------------- registry

_REGISTRY: Dict[str, Callable[[], Kernel]] = {}
_INSTANCES: Dict[str, Kernel] = {}


def register_kernel(name: str, factory: Callable[[], Kernel]) -> None:
    """Register a kernel factory under ``name`` (replacing any previous one)."""
    if not name:
        raise ConfigurationError("kernel name must be a non-empty string")
    _REGISTRY[name] = factory
    _INSTANCES.pop(name, None)


def available_kernels() -> tuple:
    """Names of all registered kernels, sorted."""
    return tuple(sorted(_REGISTRY))


def get_kernel(kernel: Optional[Union[str, Kernel]] = None) -> Kernel:
    """Resolve a kernel by name (``None`` → :data:`DEFAULT_KERNEL`).

    Accepts an already-instantiated :class:`Kernel` unchanged so call sites
    can thread either a registry name or a custom instance.
    """
    if isinstance(kernel, Kernel):
        return kernel
    name = kernel if kernel is not None else DEFAULT_KERNEL
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown kernel {name!r}; available: {available_kernels()}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _REGISTRY[name]()
    return _INSTANCES[name]


def _compiled_factory() -> Kernel:
    """Lazy-import factory for the optional numba backend.

    The import (and therefore the hard numba dependency) only happens when
    ``kernel="compiled"`` is actually requested; without numba installed,
    :class:`~repro.core.kernels_compiled.CompiledKernel` raises a
    :class:`~repro.errors.ConfigurationError` naming the ``[compiled]``
    extra, and nothing is cached — installing numba later in the same
    process makes the next request succeed.
    """
    from repro.core.kernels_compiled import CompiledKernel

    return CompiledKernel()


#: Name of the self-resolving kernel: the fastest available backend.
AUTO_KERNEL = "auto"

#: Auto-selection preference, fastest first.  The last entry is the
#: unconditional fallback (always constructible).
_AUTO_PREFERENCE = ("compiled", "fused", "vectorized")


def resolve_auto_kernel() -> str:
    """The name ``kernel="auto"`` resolves to on this machine.

    Tries the preference order ``compiled`` > ``fused`` > ``vectorized``
    and returns the first backend that actually constructs — a missing
    optional dependency (numba) degrades to the next-best backend instead
    of failing, so ``auto`` never raises.
    """
    for name in _AUTO_PREFERENCE[:-1]:
        if name not in _REGISTRY:
            continue
        try:
            get_kernel(name)
        except ConfigurationError:
            continue
        return name
    return _AUTO_PREFERENCE[-1]


def _auto_factory() -> Kernel:
    return get_kernel(resolve_auto_kernel())


register_kernel("vectorized", VectorizedKernel)
register_kernel("reference", ReferenceKernel)
register_kernel("fused", FusedKernel)
register_kernel("compiled", _compiled_factory)
register_kernel(AUTO_KERNEL, _auto_factory)
