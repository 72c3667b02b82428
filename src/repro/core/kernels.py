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
* ``"fused"`` runs the whole encode chain — negabinary → bitplane
  transpose → XOR prediction → per-plane packing — of **every level of a
  shard** as **one sweep in the packed byte domain**
  (:meth:`Kernel.encode_planes` / :meth:`Kernel.decode_planes`, which take
  a shard's list of levels), over a per-thread buffer arena.  The levels
  lie side by side in one position-major matrix (row ``p`` = bit ``p`` of
  every value, so levels of different width align at the LSB), and a sweep
  costs a fixed number of NumPy calls per shard instead of per level — a
  shard is mostly small levels that would each pay more for dispatch than
  for data.  XOR prediction commutes with bit packing (pad bits are zero
  on both sides), so it runs on the 8×-smaller packed rows.  Output bytes
  are asserted identical to both other kernels.
* ``"compiled"`` (optional, the ``[compiled]`` pip extra) is the numba
  ``@njit(parallel=True)`` port of the sweep, one level at a time
  (:mod:`repro.core.kernels_compiled`): the same bit-block transpose,
  compiled to machine code with the independent byte columns parallelised
  across cores, under the base class's loop over a shard's levels.  It is
  registered behind a lazy import — on a machine without numba, requesting
  it raises a :class:`~repro.errors.ConfigurationError` naming the extra.
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
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.coders.bitio import BitReader, BitWriter  # reference kernel substrate
from repro.core.negabinary import NEGABINARY_MASK as _NEGABINARY_MASK
from repro.core.negabinary import from_negabinary as _nb_decode
from repro.core.negabinary import required_bits_from_codes as _nb_required_bits
from repro.core.negabinary import to_negabinary as _nb_encode
from repro.errors import ConfigurationError

#: Name of the kernel used when none is requested explicitly: the
#: self-resolving ``"auto"`` (see :func:`resolve_auto_kernel`).
DEFAULT_KERNEL = "auto"

_U64_MASK = (1 << 64) - 1

#: One level as :meth:`Kernel.decode_planes` takes it: the loaded packed
#: plane rows (most significant first), the value count, the level width.
LevelPlanes = Tuple[Sequence[bytes], int, int]


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

    # ------------------------------------------------------- shard-wide hooks

    def encode_planes(
        self, levels: Sequence[np.ndarray], prefix_bits: int
    ) -> List[Tuple[int, List[bytes]]]:
        """A shard's full plane-encode chain: per-level codes → plane blocks.

        ``levels`` holds the quantization codes of every level of one shard
        (a single level is the batch of one).  Each level runs negabinary
        conversion, bitplane transposition, XOR prediction and per-plane
        bit packing; the result is one ``(nbits, blocks)`` pair per level,
        in order, with one packed byte string per plane, most significant
        first.  The default implementation loops over the levels composing
        the four primitive kernel methods, so every kernel gets the hook
        for free and stays an oracle; :class:`FusedKernel` overrides it with
        one sweep over the whole shard.  All implementations must emit
        byte-identical blocks.
        """
        _check_prefix_bits(prefix_bits)
        return [self._encode_level(codes, prefix_bits) for codes in levels]

    def decode_planes(
        self, levels: Sequence[LevelPlanes], prefix_bits: int
    ) -> List[np.ndarray]:
        """Invert :meth:`encode_planes` for each level's loaded plane prefix.

        Every entry of ``levels`` is ``(raw_planes, count, nbits)``: the
        losslessly *decoded* packed plane rows that were loaded (most
        significant first, each ``ceil(count / 8)`` bytes — the predictive
        coder validates and trims them), the number of values and the level
        width.  Unloaded low planes are treated as zero.  Returns the
        ``int64`` quantization codes of every level, in order; the arrays
        may be views of one shared buffer.
        """
        _check_prefix_bits(prefix_bits)
        return [
            self._decode_level(raw_planes, count, nbits, prefix_bits)
            for raw_planes, count, nbits in levels
        ]

    def _encode_level(
        self, codes: np.ndarray, prefix_bits: int
    ) -> Tuple[int, List[bytes]]:
        """One level of :meth:`encode_planes`, from the primitive methods."""
        codes = np.asarray(codes, dtype=np.int64).ravel()
        negabinary = self.to_negabinary(codes)
        nbits = _nb_required_bits(negabinary)
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


#: The three masked swaps of the 8×8 bit-block transpose (Hacker's Delight
#: ``transpose8``): exchange the off-diagonal 1×1, 2×2 and 4×4 sub-blocks
#: of the bit matrix a ``uint64`` holds (byte ``r``, bit ``c`` = entry
#: ``(r, c)``) — carry-free, and its own inverse.
_TRANSPOSE_SWAPS = (
    (np.uint64(7), np.uint64(0x00AA00AA00AA00AA)),
    (np.uint64(14), np.uint64(0x0000CCCC0000CCCC)),
    (np.uint64(28), np.uint64(0x00000000F0F0F0F0)),
)


def _transpose_bit_blocks(blocks: np.ndarray, scratch: np.ndarray) -> None:
    """Transpose, in place, the 8×8 bit matrix in every ``uint64`` of ``blocks``."""
    for shift, mask in _TRANSPOSE_SWAPS:
        np.right_shift(blocks, shift, out=scratch)
        scratch ^= blocks
        scratch &= mask
        blocks ^= scratch
        np.left_shift(scratch, shift, out=scratch)
        blocks ^= scratch


class FusedKernel(ArenaKernel):
    """One packed-domain sweep per shard over a reusable buffer arena.

    The primitive operations are inherited from :class:`VectorizedKernel`
    (they already are single bulk passes), but the shard-wide hooks run
    entirely in the *packed* byte domain.  ``extract_bitplanes`` +
    ``pack_bits`` (and their inverses) compose to a **bit-matrix
    transpose** — ``n × nbits`` value-major bits to ``nbits × n``
    plane-major bits — and :func:`_transpose_bit_blocks` does it 8×8 bits
    at a time without ever materialising the ``n × nbits`` bit matrix.

    Every level of the shard is padded to whole 8-value blocks and laid
    side by side in one **position-major** arena matrix: row ``p`` holds
    bit ``p`` of every value as packed bytes, so levels of different
    ``nbits`` align at the least significant bit and the rows above a
    level's width are zero.  A fixed number of NumPy passes then serves
    all levels at once — a shard's many small levels cost no more dispatch
    than its largest one:

    * **encode** — code byte ``j`` of a block's 8 values is one ``uint64``
      whose transpose *is* the packed plane rows ``8j … 8j + 7``.  The XOR
      prediction runs on the packed rows (8× less data than bits); zero
      rows above a level's width predict nothing, exactly as the per-level
      recurrence stops at the top plane.
    * **decode** — the loaded rows are laid into the matrix, un-predicted
      top-down (zero rows pass through the recurrence unchanged; rows
      *below* a level's loaded planes pick up the planes above them and are
      re-zeroed) and pushed through the same transpose into value bytes.

    Byte identity with the other kernels holds because the block transpose
    reproduces ``np.packbits``'s little-endian bit placement exactly and
    the zero padding of the trailing partial block matches ``packbits``'s
    zero-filled pad bits (and XOR before or after packing is the same
    operation: 0⊕0 pads stay 0).
    """

    name = "fused"

    def encode_planes(
        self, levels: Sequence[np.ndarray], prefix_bits: int
    ) -> List[Tuple[int, List[bytes]]]:
        _check_prefix_bits(prefix_bits)
        levels = [np.asarray(codes, dtype=np.int64).ravel() for codes in levels]
        # Level i owns packed columns starts[i] … starts[i+1] of every row.
        starts = list(accumulate(((codes.size + 7) // 8 for codes in levels), initial=0))
        width = starts[-1]
        arena = self._arena
        words = arena.take("encode.words", (8 * width,), np.uint64)
        for codes, start, stop in zip(levels, starts, starts[1:]):
            words[8 * start : 8 * start + codes.size] = codes.view(np.uint64)
            words[8 * start + codes.size : 8 * stop] = 0
        # The alternating-mask negabinary map, in place; pads stay zero.
        words += _NEGABINARY_MASK
        words ^= _NEGABINARY_MASK
        widths = [_nb_required_bits(words[8 * a : 8 * b]) for a, b in zip(starts, starts[1:])]
        groups = (max(widths, default=1) + 7) // 8
        packed = arena.take("encode.packed", (8 * groups, width))
        blocks = arena.take("encode.blocks", (width,), np.uint64)
        scratch = arena.take("encode.scratch", (width,), np.uint64)
        word_bytes = words.view(np.uint8).reshape(8 * width, 8)
        for j in range(groups):
            np.copyto(blocks.view(np.uint8), word_bytes[:, j])
            _transpose_bit_blocks(blocks, scratch)
            packed[8 * j : 8 * j + 8] = blocks.view(np.uint8).reshape(width, 8).T
        predicted = arena.take("encode.predicted", packed.shape)
        np.copyto(predicted, packed)
        for j in range(1, prefix_bits + 1):
            predicted[:-j] ^= packed[j:]
        return [
            (nbits, [predicted[p, start:stop].tobytes() for p in range(nbits - 1, -1, -1)])
            for nbits, start, stop in zip(widths, starts, starts[1:])
        ]

    def decode_planes(
        self, levels: Sequence[LevelPlanes], prefix_bits: int
    ) -> List[np.ndarray]:
        _check_prefix_bits(prefix_bits)
        # A level with no plane loaded takes no columns and decodes to zeros.
        row_bytes = [(count + 7) // 8 if rows else 0 for rows, count, _ in levels]
        starts = list(accumulate(row_bytes, initial=0))
        width = starts[-1]
        top = max((level[2] for level, nbytes in zip(levels, row_bytes) if nbytes), default=0)
        groups = (top + 7) // 8
        arena = self._arena
        packed = arena.take("decode.packed", (8 * groups, width))
        packed.fill(0)
        bottom = top  # lowest bit position any level loaded
        for (rows, _, nbits), start, nbytes in zip(levels, starts, row_bytes):
            keep = len(rows)
            if not nbytes:
                continue
            if keep > nbits or set(map(len, rows)) != {nbytes}:
                raise ValueError(
                    f"{keep} plane rows of {sorted(set(map(len, rows)))} bytes "
                    f"for a level of {nbits} planes × {nbytes} bytes"
                )
            joined = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(keep, nbytes)
            packed[nbits - keep : nbits, start : start + nbytes] = joined[::-1]
            bottom = min(bottom, nbits - keep)
        if prefix_bits == 1:
            descending = packed[bottom:top][::-1]
            np.bitwise_xor.accumulate(descending, axis=0, out=descending)
        else:
            for p in range(top - 2, bottom - 1, -1):
                for j in range(1, min(prefix_bits, top - 1 - p) + 1):
                    packed[p] ^= packed[p + j]
        for (rows, _, nbits), start, nbytes in zip(levels, starts, row_bytes):
            packed[bottom : nbits - len(rows), start : start + nbytes] = 0
        # Byte groups wholly below every loaded plane stay zero untouched.
        word_bytes = arena.take("decode.words", (width, 8, 8))
        word_bytes.fill(0)
        blocks = arena.take("decode.blocks", (width,), np.uint64)
        scratch = arena.take("decode.scratch", (width,), np.uint64)
        block_bytes = blocks.view(np.uint8).reshape(width, 8)
        for j in range(bottom // 8, groups):
            np.copyto(block_bytes, packed[8 * j : 8 * j + 8].T)
            _transpose_bit_blocks(blocks, scratch)
            word_bytes[:, :, j] = block_bytes
        codes = self.from_negabinary(word_bytes.reshape(-1).view("<u8"))
        return [
            codes[8 * start : 8 * start + count] if nbytes else np.zeros(count, dtype=np.int64)
            for (_, count, _), start, nbytes in zip(levels, starts, row_bytes)
        ]


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
