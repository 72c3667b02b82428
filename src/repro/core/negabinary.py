"""Negabinary (base −2) representation of signed quantization integers.

Progressive coding splits integers into bitplanes and may drop the least
significant planes.  §4.4.2 of the paper selects negabinary over two's
complement and sign-magnitude because (a) values fluctuating around zero keep
their high-order negabinary bits at 0, producing highly compressible
high-order bitplanes, and (b) the reconstruction uncertainty after dropping
the ``d`` lowest planes is only about two thirds of sign-magnitude's ``2^d − 1``.

The conversion uses the classic alternating-mask trick (also used by ZFP):

``nb = (v + MASK) ^ MASK``  and  ``v = (nb ^ MASK) − MASK``

where ``MASK = 0xAAAA...AAAA`` has ones in every odd bit position.  Both maps
are bijections between ``int64`` and ``uint64`` and are fully vectorised.
The write's δ tables are one C call per shard (``ipc_truncation_errors``),
through :mod:`repro.core.native`, the one place the library is built,
loaded, declared and checked.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core import native

#: Alternating bit mask ``0b...10101010`` for 64-bit words.
NEGABINARY_MASK = np.uint64(0xAAAAAAAAAAAAAAAA)
_NOT_WIDTHS = "widths must be an array('q') of one width for each of {shape[0]} levels"


def to_negabinary(values: np.ndarray) -> np.ndarray:
    """Map signed integers to their negabinary code, returned as ``uint64``.

    The code of ``v`` is the unsigned integer whose base-2 digits equal the
    base-(−2) digits of ``v``; e.g. −1 → 0b11, +1 → 0b01, −2 → 0b10.
    """
    v = np.asarray(values, dtype=np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):
        return (v + NEGABINARY_MASK) ^ NEGABINARY_MASK


def from_negabinary(codes: np.ndarray) -> np.ndarray:
    """Invert :func:`to_negabinary`, returning ``int64`` values."""
    u = np.asarray(codes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        out = u ^ NEGABINARY_MASK  # the one fresh array; the rest is in place
        out -= NEGABINARY_MASK
    return out.view(np.int64)


def required_bits_from_codes(codes: np.ndarray) -> int:
    """Minimal number of bitplanes covering already-converted negabinary codes.

    Returns at least 1 so that an all-zero level still produces a (trivially
    compressible) plane, which keeps the stream layout uniform.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    if codes.size == 0:
        return 1
    return max(1, int(codes.max()).bit_length())


def truncate_low_planes(values: np.ndarray, dropped: int) -> np.ndarray:
    """Zero the ``dropped`` least significant negabinary planes of ``values``.

    This models exactly what a partial retrieval reconstructs for a level when
    only the high planes were loaded.  The encoder's per-level information-loss
    table ``δy_l(b)`` is defined by it but computed for all ``b`` at once by
    :func:`truncation_errors`.
    """
    if dropped <= 0:
        return np.asarray(values, dtype=np.int64).copy()
    codes = to_negabinary(values)
    if dropped >= 64:
        return np.zeros_like(np.asarray(values, dtype=np.int64))
    mask = ~np.uint64((np.uint64(1) << np.uint64(dropped)) - np.uint64(1))
    return from_negabinary(codes & mask)


def truncation_errors(values: np.ndarray, nbits: int) -> np.ndarray:
    """Exact ``max |v − truncate_low_planes(v, d)|`` for every ``d = 0 … nbits``.

    The level of one: :func:`truncation_error_tables` of ``[(values, nbits)]``.
    Returns ``int64[nbits + 1]``, all zeros for an empty level.
    """
    return truncation_error_tables([(values, nbits)])[0]


class CodeTable:
    """A shard's levels of codes as the C reads them, where they lie: each
    level as a C-contiguous ``int64`` array (the level itself when it is
    one, else a copy; the table keeps them alive), a ``uintp`` table of
    their addresses and an ``array("q")`` of their counts.  Iterating it
    yields the levels, so it stands wherever a list of levels does: the
    write builds one per shard and hands it to both of its C calls
    (:meth:`~repro.core.kernels.PlaneKernel.encode_planes` and
    :func:`table_truncation_errors`)."""

    def __init__(self, levels: Iterable[np.ndarray]) -> None:
        self.levels = [np.ascontiguousarray(codes, dtype=np.int64).ravel() for codes in levels]
        self.addresses = np.array([native.address(c) for c in self.levels], dtype=np.uintp)
        self.counts = array("q", [codes.size for codes in self.levels])

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)


def truncation_error_tables(
    levels: Sequence[Tuple[np.ndarray, int]]
) -> List[np.ndarray]:
    """The δ tables of a shard: :func:`truncation_errors` of every
    ``(values, nbits)`` pair, in one C call over all of them
    (:func:`table_truncation_errors`)."""
    levels = list(levels)
    widths = _in_range([nbits for _, nbits in levels])  # before array("q") converts them
    return table_truncation_errors(CodeTable(values for values, _ in levels), array("q", widths))


def _in_range(widths: Sequence[int]) -> Sequence[int]:
    """``widths``, once each is 0 … 64 planes: the C keeps the extremes of
    at most 64, and ``OverflowError`` means only a loss beyond ``int64``."""
    for nbits in widths:
        if not 0 <= nbits <= 64:
            raise ValueError(f"nbits must be in 0..64, got {nbits}")
    return widths


def table_truncation_errors(table: CodeTable, widths: array) -> List[np.ndarray]:
    """The δ tables of a shard's :class:`CodeTable`, level ``i`` taken as
    ``widths[i]`` planes wide (an ``array("q")`` of widths 0 … 64, such as
    the plane encode returns), in one C call.

    Dropping the ``d`` low digits loses exactly their value,
    ``from_negabinary(nb & low)`` with ``low = 2^d − 1``.  On the key
    ``x = nb ^ MASK`` — simply ``v + MASK`` (mod 2^64), so nothing is
    converted — that value is ``(x & low) − (MASK & low)``, *increasing* in
    the masked key: the largest loss of either sign sits at the maximum or
    minimum of ``x & low``.  ``ipc_truncation_errors`` (``_sweep.c``) takes
    them per level and plane, in 16-bit limbs of the keys, reading each
    level's codes where they lie.

    Returns one ``int64[nbits + 1]`` table per level, in order (views of
    one buffer); an empty level's is all zeros.  A loss beyond ``int64``
    (a level 63 or 64 bits wide can have one) raises ``OverflowError``
    naming the level's width.
    """
    at = native.checked(widths, "q", (len(table), 1), ValueError, _NOT_WIDTHS)
    _in_range(widths)
    tables = np.empty(sum(widths) + len(widths), dtype=np.int64)
    failed = native.library().ipc_truncation_errors(
        native.address(table.addresses),
        native.address(table.counts),
        at,
        len(widths),
        native.address(tables),
    )
    if failed:
        raise OverflowError(
            f"a level's codes are {widths[failed - 1]} bits wide in negabinary, and "
            "dropping their low planes loses more than an int64 δ table holds"
        )
    starts = accumulate((nbits + 1 for nbits in widths), initial=0)
    return [tables[start : start + nbits + 1] for start, nbits in zip(starts, widths)]


def truncation_uncertainty(dropped: int, scheme: str = "negabinary") -> float:
    """Worst-case integer error from dropping ``dropped`` low planes (§4.4.2).

    For negabinary the bound is ``2/3·2^d − 1/3`` (d odd) or ``2/3·2^d − 2/3``
    (d even); for sign-magnitude it is ``2^d − 1``.  Exposed mainly for the
    analytical comparison in the tests and the theory module — the optimizer
    uses exact per-level tables instead of this worst case.
    """
    if dropped <= 0:
        return 0.0
    if scheme == "negabinary":
        if dropped % 2 == 1:
            return (2.0 / 3.0) * (1 << dropped) - 1.0 / 3.0
        return (2.0 / 3.0) * (1 << dropped) - 2.0 / 3.0
    if scheme == "sign-magnitude":
        return float((1 << dropped) - 1)
    raise ValueError(f"unknown scheme {scheme!r}")
