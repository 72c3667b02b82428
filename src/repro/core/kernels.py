"""The plane kernel: the bit-level hot path of IPComp, one sweep per shard.

The paper's coder has exactly one bit path (§4): quantization integers →
negabinary → bitplanes → XOR prediction → per-plane packed bytes, and its
inverse.  :class:`PlaneKernel` runs that whole chain for **every level of a
shard** in one call (:meth:`PlaneKernel.encode_planes` /
:meth:`PlaneKernel.decode_planes`, which take a shard's list of levels):

* **encode** is numpy, one sweep in the packed byte domain over a
  per-thread buffer arena.  The levels lie side by side in one
  position-major matrix (row ``p`` = bit ``p`` of every value, so levels of
  different width align at the LSB), and the sweep costs a fixed number of
  NumPy calls per shard instead of per level — a shard is mostly small
  levels that would each pay more for dispatch than for data.  XOR
  prediction commutes with bit packing (pad bits are zero on both sides),
  so it runs on the 8×-smaller packed rows.
* **decode** is one call into C (``ipc_decode_planes`` in ``_sweep.c``, the
  library :mod:`repro.core.interpolation` builds and loads) over the
  shard's one row buffer and a table of each level's offset and shape: it
  checks that every level lies inside the buffer, then walks each level in
  chunks of packed columns with the same 8×8 bit transpose.  ctypes
  releases the GIL for the call, and the C keeps no state between calls.

There is one implementation and no selector: :func:`get_kernel` returns the
one process-wide instance.  The byte-identity contract — both directions
agree with the paper's pseudocode, bit by bit and one level at a time — is
held by the loop oracle in ``tests/oracle_kernel.py`` (differential tests
in ``tests/test_kernels*.py``), not by a second path in ``src/``.  Every
plane in the package goes through it: the IPComp writer and reader, the ZFP
baseline's coefficient planes and the Table 2 entropy study.

The instance is shared by every thread (the serving layer decodes
``max_inflight`` requests at once, and a write encodes two slabs at once),
so the encode keeps its grow-only scratch *per thread*: per-thread scratch
is a correctness requirement, not an optimisation.
"""

from __future__ import annotations

import ctypes
import threading
from array import array
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.interpolation import _sweep
from repro.core.negabinary import NEGABINARY_MASK as _NEGABINARY_MASK
from repro.core.negabinary import required_bits_from_codes as _nb_required_bits
from repro.errors import ConfigurationError

#: XOR-prediction depth of the plane chain when a profile names none: two
#: prefix bits minimise the plane entropy on the paper's datasets (Table 2).
DEFAULT_PREFIX_BITS = 2


def check_prefix_bits(prefix_bits: int) -> None:
    """Reject a prefix-bit count outside the coder's ``[0, 3]`` range."""
    if not 0 <= prefix_bits <= 3:
        raise ConfigurationError("prefix_bits must be in [0, 3]")


#: A shard's level table as :meth:`PlaneKernel.decode_planes` takes it: an
#: ``array("q")`` of four int64s per level, ``(offset, keep, count, nbits)``
#: — the level's ``keep`` loaded packed plane rows (most significant first)
#: of ``ceil(count / 8)`` bytes each, from byte ``offset`` of the shard's one
#: row buffer (the progressive retriever's resident rows, handed over whole,
#: never copied row by row), its value count and its width.  A typed buffer
#: the C reads in place: its address costs no wrapper.
LevelTable = array
_BYTE = np.dtype(np.uint8)
#: ``addressof(_VIEW.from_buffer(a))`` is the address of a writable array
#: ``a``, an empty one too, for a third of what numpy's ``a.ctypes.data``
#: costs.
_VIEW = ctypes.c_char * 0


class _BufferArena:
    """Grow-only scratch buffers of the encode, keyed by role.

    The kernel reuses one arena across every level and plane it
    encodes, so the hot path allocates only when a level is larger than any
    level seen before.  Buffers are pure scratch: nothing returned to a
    caller aliases an arena buffer (block bytes are materialised with
    ``tobytes``).  :class:`PlaneKernel` keeps one arena *per thread* —
    ``get_kernel`` returns a single process-wide instance, and two threads
    sweeping the same buffers would silently corrupt each other's streams.
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


class PlaneKernel:
    """A shard's plane chain: a numpy encode sweep, a C decode call.

    Negabinary conversion, bitplane extraction, XOR prediction and per-plane
    bit packing (and their inverses) compose to a **bit-matrix transpose** —
    ``n × nbits`` value-major bits to ``nbits × n`` plane-major bits — done
    8×8 bits at a time (:func:`_transpose_bit_blocks` here, the same three
    masked swaps in ``_sweep.c``) without ever materialising the
    ``n × nbits`` bit matrix.

    * **encode** — every level of the shard is padded to whole 8-value
      blocks and laid side by side in one **position-major** arena matrix:
      row ``p`` holds bit ``p`` of every value as packed bytes, so levels
      of different ``nbits`` align at the least significant bit and the
      rows above a level's width are zero.  Code byte ``j`` of a block's 8
      values is one ``uint64`` whose transpose *is* the packed plane rows
      ``8j … 8j + 7``.  The XOR prediction runs on the packed rows (8× less
      data than bits); zero rows above a level's width predict nothing,
      exactly as the per-level recurrence stops at the top plane.  A fixed
      number of NumPy passes serves all levels at once.
    * **decode** — per level, chunk by chunk, the C lays the loaded rows
      position-major, un-predicts them top-down and pushes each byte group
      through the transpose into the values' words.

    Byte identity with the per-level loop oracle holds because the block
    transpose reproduces ``np.packbits``'s little-endian bit placement exactly
    and the zero padding of the trailing partial block matches ``packbits``'s
    zero-filled pad bits (and XOR before or after packing is the same
    operation: 0⊕0 pads stay 0).
    """

    def __init__(self) -> None:
        self._thread_state = threading.local()

    @property
    def _arena(self) -> _BufferArena:
        # :func:`get_kernel` hands every caller the **same** instance and a
        # write encodes two slabs concurrently on it, so arena state must be
        # per thread: two threads sweeping the same buffers would silently
        # corrupt each other's streams.  Nothing ``encode_planes`` returns
        # aliases an arena buffer (block bytes are materialised with
        # ``tobytes``).
        arena = getattr(self._thread_state, "arena", None)
        if arena is None:
            arena = self._thread_state.arena = _BufferArena()
        return arena

    def encode_planes(
        self, levels: Sequence[np.ndarray], prefix_bits: int
    ) -> List[Tuple[int, List[bytes]]]:
        """A shard's full plane-encode chain: per-level codes → plane blocks.

        ``levels`` holds the quantization codes of every level of one shard
        (a single level is the batch of one).  Each level runs negabinary
        conversion, bitplane transposition, XOR prediction and per-plane
        bit packing; the result is one ``(nbits, blocks)`` pair per level,
        in order, with one packed byte string per plane, most significant
        first.
        """
        check_prefix_bits(prefix_bits)
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
        self, rows: np.ndarray, levels: LevelTable, prefix_bits: int
    ) -> List[np.ndarray]:
        """Invert :meth:`encode_planes` for each level's loaded plane prefix.

        ``rows`` is one C-contiguous 1-D ``uint8`` buffer holding the
        losslessly *decoded* packed plane rows that were loaded (the
        predictive coder validates and trims them), and ``levels`` the
        shard's :data:`LevelTable`, each level's ``(offset, keep, count,
        nbits)`` in it; a caller with one level passes offset 0.  Unloaded
        low planes are treated as zero.  Returns the ``int64`` quantization
        codes of every level, in order, as views of one fresh buffer.

        The whole shard is one C call (``ipc_decode_planes`` in
        ``_sweep.c``), which checks that every level's rows lie inside
        ``rows`` before it reads any; a level that does not is a
        ``ValueError``.
        """
        check_prefix_bits(prefix_bits)
        if not (
            isinstance(rows, np.ndarray)
            and rows.dtype == _BYTE
            and rows.ndim == 1
            and rows.flags.c_contiguous
        ):
            raise ValueError("the plane rows are not one C-contiguous 1-D uint8 array")
        if not (isinstance(levels, array) and levels.typecode == "q" and len(levels) % 4 == 0):
            raise ValueError("the level table is not an array('q') of four ints per level")
        counts = levels[2::4]
        codes = np.empty(max(sum(counts), 0), dtype=np.int64)
        failed = _sweep().ipc_decode_planes(
            rows.ctypes.data,
            rows.size,
            levels.buffer_info()[0],
            len(counts),
            prefix_bits,
            ctypes.addressof(_VIEW.from_buffer(codes)),
        )
        if failed:
            offset, keep, count, nbits = levels[4 * failed - 4 : 4 * failed]
            raise ValueError(
                f"level {failed - 1}: {keep} of {nbits} plane rows (0 to 64) of "
                f"{count} values from byte {offset} are not inside {rows.size} bytes"
            )
        starts = accumulate(counts, initial=0)
        return [codes[start : start + count] for start, count in zip(starts, counts)]


_KERNEL = PlaneKernel()


def get_kernel() -> PlaneKernel:
    """The one process-wide :class:`PlaneKernel` (shared by every thread)."""
    return _KERNEL
