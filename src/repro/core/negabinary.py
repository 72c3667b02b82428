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
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence, Tuple

import numpy as np

#: Alternating bit mask ``0b...10101010`` for 64-bit words.
NEGABINARY_MASK = np.uint64(0xAAAAAAAAAAAAAAAA)


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


def required_bits(values: np.ndarray) -> int:
    """Minimal number of negabinary bitplanes needed to represent ``values``."""
    return required_bits_from_codes(to_negabinary(values))


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


def truncation_error_tables(
    levels: Sequence[Tuple[np.ndarray, int]]
) -> List[np.ndarray]:
    """The δ tables of a shard: :func:`truncation_errors` of every
    ``(values, nbits)`` pair, in one sweep over all of them.

    Dropping the ``d`` low digits loses exactly their value,
    ``from_negabinary(nb & low)`` with ``low = 2^d − 1``.  On the key
    ``x = nb ^ MASK`` — simply ``v + MASK`` (mod 2^64), so nothing is
    converted — that value is ``(x & low) − (MASK & low)``, *increasing* in
    the masked key: the largest loss of either sign sits at the maximum or
    minimum of ``x & low``.

    Every non-empty level's key goes into one array, widest level first, in
    the narrowest unsigned dtype holding the widest level.  Plane ``d`` then
    touches the prefix of levels at least ``d`` wide: one ``and`` (widest
    mask first and in place; masks nest) and one ``maximum`` / ``minimum``
    ``reduceat`` over the level starts — three NumPy calls per plane of the
    shard, not per plane of every level.  The signs are resolved in
    ``int64`` (or on Python ints when a level is 63 or 64 bits wide, where
    ``int64`` could wrap).  Returns one ``int64[nbits + 1]`` table per
    level, in order; an empty level's is all zeros.  A loss beyond
    ``int64`` (a level 64 bits wide can have one) raises ``OverflowError``
    naming the level's width.
    """
    tables: List[np.ndarray] = []
    live: List[Tuple[int, int, np.ndarray]] = []  # (nbits, index, values)
    for values, nbits in levels:
        if not 0 <= nbits <= 64:
            raise ValueError(f"nbits must be in 0..64, got {nbits}")
        v = np.asarray(values, dtype=np.int64).ravel()
        if v.size and nbits:
            live.append((nbits, len(tables), v))
        tables.append(np.zeros(nbits + 1, dtype=np.int64))
    if not live:
        return tables
    live.sort(key=lambda item: -item[0])  # widest first
    width = live[0][0]
    dtype = np.uint16 if width <= 16 else np.uint32 if width <= 32 else np.uint64
    bounds = list(accumulate((v.size for _, _, v in live), initial=0))
    key = np.empty(bounds[-1], dtype=dtype)
    with np.errstate(over="ignore"):
        for (_, _, v), start, stop in zip(live, bounds, bounds[1:]):
            # The key of a level, cut to the working dtype on the way in.
            np.add(v.view(np.uint64), NEGABINARY_MASK, out=key[start:stop], casting="unsafe")
    starts = np.array(bounds[:-1], dtype=np.intp)
    top = np.zeros((width + 1, len(live)), dtype=dtype)
    bottom = np.zeros_like(top)
    active = 0  # levels at least ``dropped`` wide: a prefix that grows as ``dropped`` falls
    for dropped in range(width, 0, -1):
        while active < len(live) and live[active][0] >= dropped:
            active += 1
        masked = key[: bounds[active]]
        np.bitwise_and(masked, dtype((1 << dropped) - 1), out=masked)
        np.maximum.reduceat(masked, starts[:active], out=top[dropped, :active])
        np.minimum.reduceat(masked, starts[:active], out=bottom[dropped, :active])
    mask = int(NEGABINARY_MASK)
    offsets = [mask & ((1 << dropped) - 1) for dropped in range(width + 1)]
    if width < 63:
        offset = np.array(offsets, dtype=np.int64)[:, None]
        errors = np.maximum(top.astype(np.int64) - offset, offset - bottom.astype(np.int64))
    else:
        offset = np.array(offsets, dtype=object)[:, None]
        errors = np.maximum(top.astype(object) - offset, offset - bottom.astype(object))
    for column, (nbits, index, _) in enumerate(live):
        losses = errors[1 : nbits + 1, column]
        if width >= 63 and max(losses) > np.iinfo(np.int64).max:
            raise OverflowError(
                f"a level's codes are {nbits} bits wide in negabinary, and dropping "
                "their low planes loses more than an int64 δ table holds"
            )
        tables[index][1:] = losses
    return tables


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
