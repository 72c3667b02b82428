"""The plane kernel: the bit-level hot path of IPComp, one C call per shard.

The paper's coder has exactly one bit path (§4): quantization integers →
negabinary → bitplanes → XOR prediction → per-plane packed bytes, and its
inverse.  :class:`PlaneKernel` runs that whole chain for **every level of a
shard** in one call (:meth:`PlaneKernel.encode_planes` /
:meth:`PlaneKernel.decode_planes`, which take a shard's list of levels),
each one call into C (``ipc_encode_planes`` / ``ipc_decode_planes`` in
``_sweep.c``, through :mod:`repro.core.native`, the one place the library
is built, loaded, declared and checked).  The encode reads each level's
codes where they lie (a table of their addresses and counts); the decode
takes the shard's one row buffer and a table of each level's offset and
shape, and checks that every level lies inside the buffer before it reads
any.

The GIL is released for both calls, so the two slabs a write has in flight
encode at once, and the C keeps no state between calls: the one instance
is shared by every thread (the serving layer decodes ``max_inflight``
requests at once, and a write encodes two slabs at once).

There is one implementation and no selector: :func:`get_kernel` returns the
one process-wide instance.  The byte-identity contract — both directions
agree with the paper's pseudocode, bit by bit and one level at a time — is
held by the loop oracle in ``tests/oracle_kernel.py`` (differential tests
in ``tests/test_kernels*.py`` and ``tests/test_encode_chain.py``), not by a
second path in ``src/``.  Every plane in the package goes through it: the
IPComp writer and reader, the ZFP baseline's coefficient planes and the
Table 2 entropy study.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import List, Sequence, Tuple

import numpy as np

from repro.core import native
from repro.core.negabinary import CodeTable
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
#: never copied row by row), its value count and its width.
LevelTable = array
_BYTE = np.dtype(np.uint8)
_NOT_ROWS = "the plane rows are not one C-contiguous 1-D uint8 array"
_NOT_A_TABLE = "the level table is not an array('q') of four ints per level"


class PlaneKernel:
    """A shard's plane chain, one C call each way.

    Negabinary conversion, bitplane extraction, XOR prediction and per-plane
    bit packing (and their inverses) compose to a **bit-matrix transpose** —
    ``n × nbits`` value-major bits to ``nbits × n`` plane-major bits — done
    8×8 bits at a time (Hacker's Delight ``transpose8``, three masked swaps
    in ``_sweep.c``) without ever materialising the ``n × nbits`` bit
    matrix.

    * **encode** — per level, chunk by chunk, the C splits byte group ``g``
      out of the values' negabinary words; the 8 bytes of a packed column
      are one ``uint64`` whose transpose *is* that column of plane rows
      ``8g … 8g + 7``.  The XOR prediction runs on the packed rows (8× less
      data than bits), each row XORing the ones above it up to the level's
      width, exactly as the per-level recurrence stops at the top plane.
    * **decode** — per level, chunk by chunk, the C lays the loaded rows
      position-major, un-predicts them top-down and pushes each byte group
      through the transpose into the values' words.

    Byte identity with the per-level loop oracle holds because the block
    transpose reproduces ``np.packbits``'s little-endian bit placement exactly
    and the zero padding of the trailing partial block matches ``packbits``'s
    zero-filled pad bits (and XOR before or after packing is the same
    operation: 0⊕0 pads stay 0).
    """

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

        The whole shard is one C call (``ipc_encode_planes`` in
        ``_sweep.c``), which reads each level's codes where they lie and
        writes every level's rows into one buffer with room for 64 planes
        of each.  ``levels`` may be a :class:`~repro.core.negabinary.CodeTable`
        already built for the δ tables (the write's case), which is then
        not built again.
        """
        check_prefix_bits(prefix_bits)
        table = levels if isinstance(levels, CodeTable) else CodeTable(levels)
        nbytes = [(count + 7) // 8 for count in table.counts]
        rows = np.empty(64 * sum(nbytes), dtype=np.uint8)
        widths = array("q", bytes(8 * len(table)))
        size = native.library().ipc_encode_planes(
            native.address(table.addresses),
            native.address(table.counts),
            len(table),
            prefix_bits,
            native.address(rows),
            native.address(widths),
        )
        data = rows[:size].tobytes()
        planes = []
        offset = 0
        for nbits, row in zip(widths, nbytes):
            blocks = [data[offset + r * row : offset + (r + 1) * row] for r in range(nbits)]
            planes.append((nbits, blocks))
            offset += nbits * row
        return planes

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
        codes of every level, in order, as views of one fresh buffer
        (:meth:`decode_shard`'s).
        """
        codes = self.decode_shard(rows, levels, prefix_bits)
        counts = levels[2::4]
        starts = accumulate(counts, initial=0)
        return [codes[start : start + count] for start, count in zip(starts, counts)]

    def decode_shard(self, rows: np.ndarray, levels: LevelTable, prefix_bits: int) -> np.ndarray:
        """:meth:`decode_planes` as the one fresh ``int64`` buffer that holds
        every level's codes, end to end in table order.

        The whole shard is one C call (``ipc_decode_planes`` in
        ``_sweep.c``), which checks that every level's rows lie inside
        ``rows`` before it reads any; a level that does not is a
        ``ValueError``.
        """
        check_prefix_bits(prefix_bits)
        at = native.checked(rows, _BYTE, None, ValueError, _NOT_ROWS)
        table = native.checked(levels, "q", (-1, 4), ValueError, _NOT_A_TABLE)
        counts = levels[2::4]
        codes = np.empty(max(sum(counts), 0), dtype=np.int64)
        failed = native.library().ipc_decode_planes(
            at, rows.size, table, len(counts), prefix_bits, native.address(codes)
        )
        if failed:
            offset, keep, count, nbits = levels[4 * failed - 4 : 4 * failed]
            raise ValueError(
                f"level {failed - 1}: {keep} of {nbits} plane rows (0 to 64) of "
                f"{count} values from byte {offset} are not inside {rows.size} bytes"
            )
        return codes


_KERNEL = PlaneKernel()


def get_kernel() -> PlaneKernel:
    """The one process-wide :class:`PlaneKernel` (shared by every thread)."""
    return _KERNEL
