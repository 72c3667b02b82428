"""The loop oracle of the δ table: one level at a time, one plane at a time.

This is the test-side half of the δ table's identity contract: the one
shard-wide sweep of :func:`repro.core.negabinary.truncation_error_tables`
must return, level for level, bitwise the tables of this loop — one
``and``, ``max`` and ``min`` per plane of every level, on a private key in
the narrowest unsigned dtype holding the level's own width, signs resolved
on Python ints.  Nothing in ``src/`` imports it.

The body is the encoder's former ``truncation_errors``, kept as it was —
including its one way to fail: a 63- or 64-plane table whose loss does not
fit ``int64`` raises :class:`OverflowError` on assignment.
"""

from __future__ import annotations

import numpy as np

from repro.core.negabinary import NEGABINARY_MASK


def loop_truncation_errors(values: np.ndarray, nbits: int) -> np.ndarray:
    """``max |v − truncate_low_planes(v, d)|`` for every ``d = 0 … nbits``."""
    if not 0 <= nbits <= 64:
        raise ValueError(f"nbits must be in 0..64, got {nbits}")
    errors = np.zeros(nbits + 1, dtype=np.int64)
    v = np.asarray(values, dtype=np.int64).ravel()
    if v.size == 0:
        return errors
    with np.errstate(over="ignore"):
        key = v.view(np.uint64) + NEGABINARY_MASK
    if nbits <= 32:
        key = key.astype(np.uint16 if nbits <= 16 else np.uint32)
    mask = int(NEGABINARY_MASK)
    for dropped in range(nbits, 0, -1):
        low = (1 << dropped) - 1
        np.bitwise_and(key, key.dtype.type(low), out=key)
        offset = mask & low
        errors[dropped] = max(int(key.max()) - offset, offset - int(key.min()))
    return errors
