"""Compiled kernel backend: numba-JIT parallel bit-block transpose sweeps.

This module provides the ``"compiled"`` kernel — a :mod:`numba`
``@njit(parallel=True, cache=True)`` port of the fused kernel's per-level
pipelines (:meth:`~repro.core.kernels.Kernel.encode_planes` /
:meth:`~repro.core.kernels.Kernel.decode_planes`).  Where
:class:`~repro.core.kernels.FusedKernel` expresses the carry-free 8×8
bit-block transpose as a handful of whole-array NumPy passes (one shift,
one mask, one multiply per plane row), the compiled kernel collapses the
whole level into **one** nopython sweep with an outer ``prange`` over the
packed byte columns: every 8-value block is gathered, transposed,
XOR-predicted and stored without ever touching an intermediate array, and
the blocks are independent, so the sweep parallelises across cores with no
synchronisation.

The emitted bytes are identical to the fused kernel's (and therefore to
every other kernel's) by construction:

* the bit placement reproduces ``np.packbits(..., bitorder="little")`` —
  value ``8·b + k``'s plane bit lands in bit ``k`` of packed byte ``b``;
* the zero padding of a trailing partial block matches ``packbits``'s
  zero-filled pad bits;
* XOR prediction commutes with packing, and running it bottom-up in place
  (descending plane rows) reads only untouched, unpredicted rows — the
  exact values the matrix formulation uses.

``numba`` is an *optional* dependency (the ``[compiled]`` extra).  The
module itself imports without it — the sweep functions below then run as
plain Python, which is how the differential tests pin them byte-identical
to the fused kernel even on numba-less machines — but constructing
:class:`CompiledKernel` (and therefore resolving ``kernel="compiled"``
through the registry) raises :class:`~repro.errors.ConfigurationError`
with the install hint.  ``kernel="auto"`` (see
:func:`repro.core.kernels.resolve_auto_kernel`) degrades to ``"fused"``
on such machines instead of failing.

JIT compilation happens on the first call per argument-type signature
(``cache=True`` persists the compiled machine code across processes, so a
warm ``NUMBA_CACHE_DIR`` skips recompilation entirely); the stream bytes
are identical before and after compilation, and :meth:`CompiledKernel.warmup`
exposes the one-off compile cost so benchmarks can report it separately
from steady-state throughput.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import ArenaKernel
from repro.core.negabinary import from_negabinary as _nb_decode
from repro.core.negabinary import required_bits_from_codes as _nb_required_bits
from repro.core.negabinary import to_negabinary as _nb_encode
from repro.errors import ConfigurationError

#: Install hint surfaced by the lazy-import guard.
COMPILED_INSTALL_HINT = (
    'pip install "ipcomp-repro[compiled]" (or: pip install "numba>=0.59")'
)

try:  # pragma: no cover - the numba branch only runs with numba installed
    from numba import njit, prange

    _NUMBA_IMPORT_ERROR: Optional[str] = None
except ImportError as exc:
    # Keep the message only: the exception's traceback reaches, frame by
    # frame, the whole stack of whoever first resolved "auto"/"compiled"
    # (this import is lazy) and would keep that caller's arrays alive for
    # the life of the process.
    _NUMBA_IMPORT_ERROR = str(exc)
    prange = range

    def njit(*args, **kwargs):
        """No-op stand-in so the sweeps below stay importable and testable."""

        if args and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(fn):
            return fn

        return wrap


def numba_available() -> bool:
    """Whether the ``[compiled]`` extra's JIT dependency is importable."""
    return _NUMBA_IMPORT_ERROR is None


def numba_version() -> Optional[str]:
    """The installed numba version, or ``None`` without the extra."""
    if not numba_available():
        return None
    import numba

    return numba.__version__


def threading_layer() -> Optional[str]:
    """The active (or, before any parallel call, requested) threading layer."""
    if not numba_available():
        return None
    import numba

    try:
        return str(numba.threading_layer())
    except ValueError:  # no parallel function has executed yet
        return str(numba.config.THREADING_LAYER)


# ------------------------------------------------------------------ sweeps
#
# Both sweeps are written against the intersection of numba-nopython and
# NumPy-scalar semantics: every value crossing a bit operation is cast to
# ``np.uint64`` explicitly (mixed signed/unsigned shifts type differently
# under the two executors), no operation can overflow (shift counts stay
# below 64, accumulated plane bytes below 256), and ``prange`` iterations
# touch disjoint byte columns, so the parallel schedule is race-free.  The
# same function objects therefore produce identical bytes whether numba
# compiled them or Python is interpreting them.

_ONE = np.uint64(1)


@njit(parallel=True, cache=True)
def _encode_planes_sweep(negabinary, nbits, prefix_bits, packed):
    """negabinary codes → XOR-predicted packed plane rows, one pass.

    ``negabinary``: ``uint64[n]``; ``packed``: ``uint8[nbits, row_bytes]``
    output, row 0 the most significant plane, little-endian bit order
    within each byte (the ``np.packbits`` convention).
    """
    n = negabinary.shape[0]
    row_bytes = packed.shape[1]
    for b in prange(row_bytes):
        base = 8 * b
        block = min(8, n - base)
        for position in range(nbits):
            acc = np.uint64(0)
            for k in range(block):
                bit = (negabinary[base + k] >> np.uint64(position)) & _ONE
                acc |= bit << np.uint64(k)
            packed[nbits - 1 - position, b] = acc
    # XOR prediction on the packed rows, bottom-up in place: row ``r`` only
    # reads rows ``< r``, which a descending sweep has not yet modified, so
    # they still hold the unpredicted planes the prediction is defined on.
    for b in prange(row_bytes):
        for row in range(nbits - 1, 0, -1):
            acc = packed[row, b]
            limit = min(prefix_bits, row)
            for j in range(1, limit + 1):
                acc ^= packed[row - j, b]
            packed[row, b] = acc


@njit(parallel=True, cache=True)
def _decode_planes_sweep(packed, count, nbits, prefix_bits, codes):
    """Loaded packed plane rows → negabinary codes, one pass.

    ``packed``: ``uint8[keep, row_bytes]`` (clobbered: un-predicted in
    place); ``codes``: ``uint64[count]`` output.  Planes beyond ``keep``
    are treated as zero, matching a partial (progressive) load.
    """
    keep = packed.shape[0]
    row_bytes = packed.shape[1]
    for b in prange(row_bytes):
        # Un-prediction is the ascending recurrence: row ``r`` XORs the
        # already-decoded rows above it, column by column.
        for row in range(1, keep):
            acc = packed[row, b]
            limit = min(prefix_bits, row)
            for j in range(1, limit + 1):
                acc ^= packed[row - j, b]
            packed[row, b] = acc
        # Inverse transpose of the same column: plane row ``r`` holds bit
        # position ``nbits − 1 − r`` of every value in the block.
        base = 8 * b
        block = min(8, count - base)
        for k in range(block):
            code = np.uint64(0)
            for row in range(keep):
                bit = (np.uint64(packed[row, b]) >> np.uint64(k)) & _ONE
                code |= bit << np.uint64(nbits - 1 - row)
            codes[base + k] = code


# ------------------------------------------------------------------ kernel


class CompiledKernel(ArenaKernel):
    """numba-JIT single-sweep plane pipeline (see the module docstring).

    The primitive operations are inherited from
    :class:`~repro.core.kernels.VectorizedKernel` (they are off the hot
    path once the pipeline hooks are fused); the per-level hooks run the
    nopython sweeps above over the per-thread buffer arena of
    :class:`~repro.core.kernels.ArenaKernel`, so the registry's shared
    instance is safe under concurrent decode (``RetrievalService
    --threads``).  Negabinary conversion stays on the vectorized
    alternating-mask map — a single constant-time NumPy pass whose uint64
    wraparound semantics would otherwise have to be re-proven under both
    executors.
    """

    name = "compiled"

    def __init__(self) -> None:
        if not numba_available():
            raise ConfigurationError(
                "kernel='compiled' requires numba, which is not installed "
                f"({_NUMBA_IMPORT_ERROR}); "
                f"install the [compiled] extra: {COMPILED_INSTALL_HINT}"
            )
        super().__init__()

    # ----------------------------------------------------------- pipelines

    def _encode_level(
        self, codes: np.ndarray, prefix_bits: int
    ) -> Tuple[int, List[bytes]]:
        codes = np.asarray(codes, dtype=np.int64).ravel()
        negabinary = _nb_encode(codes)
        nbits = _nb_required_bits(negabinary)
        n = codes.size
        if n == 0:
            return nbits, [b""] * nbits
        row_bytes = (n + 7) // 8
        packed = self._arena.take("encode.packed", (nbits, row_bytes))
        _encode_planes_sweep(negabinary, nbits, prefix_bits, packed)
        return nbits, [packed[row].tobytes() for row in range(nbits)]

    def _decode_level(
        self,
        raw_planes: Sequence[bytes],
        count: int,
        nbits: int,
        prefix_bits: int,
    ) -> np.ndarray:
        keep = len(raw_planes)
        if count == 0 or keep == 0:
            return np.zeros(count, dtype=np.int64)
        arena = self._arena
        row_bytes = (count + 7) // 8
        packed = arena.take("decode.packed", (keep, row_bytes))
        for row, raw in enumerate(raw_planes):
            buf = np.frombuffer(raw, dtype=np.uint8)
            if buf.size < row_bytes:
                # Short block: surface the same error the per-plane unpack
                # path raises (np.unpackbits count > available).
                self.unpack_bits(raw, count)
            packed[row] = buf[:row_bytes]
        negabinary = arena.take("decode.codes", (count,), np.uint64)
        _decode_planes_sweep(packed, count, nbits, prefix_bits, negabinary)
        return _nb_decode(negabinary)

    # -------------------------------------------------------------- warmup

    def warmup(self) -> float:
        """Force JIT compilation of both sweeps; returns the seconds spent.

        The first call per process compiles (unless ``cache=True`` found a
        warm on-disk cache, e.g. a CI-persisted ``NUMBA_CACHE_DIR``), every
        later call reuses the machine code.  Benchmarks call this once so
        steady-state throughput excludes the one-off compile cost — which
        this method reports so it can be recorded alongside.
        """
        sample = np.arange(-32, 33, dtype=np.int64)
        start = time.perf_counter()
        [(nbits, blocks)] = self.encode_planes([sample], 2)
        self.decode_planes([(blocks, sample.size, nbits)], 2)
        return time.perf_counter() - start
