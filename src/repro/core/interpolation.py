"""Multi-level interpolation predictor (§4.1–§4.3, Figure 3).

The predictor decorrelates an N-dimensional field level by level.  Level ``L``
(the coarsest) predicts points half-way between anchor points that are
``2^L`` apart; every following level halves the stride until level ``1``
fills in the odd-index points.  Within a level the dimensions are swept in a
fixed order; after sweeping dimension ``d`` the grid is refined to spacing
``2^(l-1)`` along every dimension ``≤ d``.

Two interpolation formulas are supported (Eq. (1) and (2) of the paper):

* ``linear`` — midpoint average of the two stride-``2^(l-1)`` neighbours,
* ``cubic``  — the 4-point spline ``(−1, 9, 9, −1)/16`` where all four
  neighbours exist, with automatic fallback to linear and then to
  nearest-neighbour copy at the domain boundary.

Crucially the prediction always reads the *lossy reconstruction* ``x̂`` (the
prediction-model formulation of §4.2.2): compression runs reconstruction in
lock-step, which is what confines the point-wise error to the quantizer bound
instead of letting it grow with the data size as a transform model would
(Eq. (3) vs. Eq. (4)).

The reconstruction map from the quantization codes to the output is *linear*
(fixed stencils, additive updates), which is the property Algorithm 2
exploits for incremental refinement: feeding a *delta* of the codes through
:meth:`InterpolationPredictor.reconstruct` yields the delta of the output.

Every pass runs in C, one call per shard and direction (``ipc_forward``,
``ipc_reconstruct``), through :mod:`repro.core.native`, the one place the
library is built, loaded, declared and checked.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import native
from repro.errors import ConfigurationError
from repro.core.quantizer import LinearQuantizer, code_range_error, spacing_error

#: L∞ operator norm of the interpolation stencils (Theorem 1's ``p``).
STENCIL_NORMS = {"linear": 1.0, "cubic": 1.25}

#: Predictors :func:`shared_predictor` keeps, least recently used out first.
SHARED_PREDICTORS = 32

#: Where each sweep unit's codes start in the one ``int64`` buffer
#: :meth:`InterpolationPredictor.reconstruct` reads: an ``array("q")`` of
#: one element offset per unit, in processing order (unit ``num_units``
#: first), −1 for a unit with no codes.
UnitTable = array
_INT64, _FLOAT64 = np.dtype(np.int64), np.dtype(np.float64)

# Why ``ipc_forward`` refused a field (``_sweep.c``'s flag bits).
_NO_CODE, _MISSED = 1, 2
# What :meth:`InterpolationPredictor.reconstruct` refuses (``native.checked``).
_NOT_OUT = (
    "out must be a C-contiguous float64 array of shape {shape}, "
    "got {buffer.dtype} {buffer.shape}"
)
_NOT_CODES = "codes must be int64 in one C-contiguous 1-D array, got {got}"
_NOT_OFFSETS = "offsets must be an array('q') of one offset for each of {shape[0]} units"


@dataclass(frozen=True)
class _DimPass:
    """One (level, dimension) sweep: a regular lattice, held as basic slices.

    ``target`` selects the sweep's points in the field, so indexing with it
    yields a *view*.  ``row`` is the pass's row of the predictor's pass
    table (``_sweep.c``): ``ndim``, ``dim``, ``k`` known points along
    ``dim``, the element offset from a target to its nearest known
    neighbours, the target lattice's start, and its per-axis counts and
    element strides.  Target ``i`` along ``dim`` lies half-way between known
    points ``i`` and ``i + 1``.
    """

    level: int
    dim: int
    target: Tuple[slice, ...]
    target_shape: Tuple[int, ...]
    #: Points in the sweep, ``prod(target_shape)``.
    size: int
    row: Tuple[int, ...]


class InterpolationPredictor:
    """Shared decorrelation engine of IPComp and the SZ3 baseline.

    Every output is grouped per sweep *unit*: each (level, dimension) pass
    gets its own number, processed from ``num_units`` (the coarsest sweep)
    down to 1 (the final, finest sweep).  IPComp's progressive blocks are
    grouped per unit because the paper's p^(l−1) propagation bound is exact
    per sweep: the loss of unit ``u`` passes through exactly ``u − 1`` later
    prediction sweeps.

    Parameters
    ----------
    shape:
        Shape of the fields this predictor will process (1-D to 4-D supported,
        higher dimensions work but are untested against the paper).
    method:
        ``"cubic"`` (default, the paper's choice) or ``"linear"``.
    """

    def __init__(self, shape: Sequence[int], method: str = "cubic") -> None:
        shape = tuple(int(s) for s in shape)
        if not shape or any(s < 1 for s in shape):
            raise ConfigurationError(f"invalid shape {shape!r}")
        if method not in STENCIL_NORMS:
            raise ConfigurationError(
                f"method must be one of {sorted(STENCIL_NORMS)}, got {method!r}"
            )
        self.shape = shape
        self.ndim = len(shape)
        self.method = method
        max_dim = max(shape)
        #: Number of interpolation levels (coarsest = ``num_levels``).
        self.num_levels = max(1, int(np.ceil(np.log2(max_dim))) if max_dim > 1 else 1)
        self._anchor = (slice(0, None, 2**self.num_levels),) * self.ndim
        #: Every pass in processing order: pass ``i`` is unit ``num_units − i``.
        self._passes: List[_DimPass] = [
            p for level in range(self.num_levels, 0, -1) for p in self._build_level_passes(level)
        ]
        self.num_units = len(self._passes)
        starts = list(accumulate((p.size for p in self._passes), initial=0))
        #: Points the passes predict: every point but the anchors.
        self._predicted = starts[-1]
        #: Each unit's slice of the passes' outputs laid end to end.
        self._spans = [
            (self.num_units - i, a, b) for i, (a, b) in enumerate(zip(starts, starts[1:]))
        ]
        self._table = np.array([p.row for p in self._passes], dtype=np.int64).reshape(
            self.num_units, 5 + 2 * self.ndim
        )
        self._table_address = native.address(self._table)
        self._cubic = int(method == "cubic")

    # ------------------------------------------------------------------ setup

    def _build_level_passes(self, level: int) -> List[_DimPass]:
        stride = 2**level
        half = stride // 2
        # Element strides of the C-contiguous field.
        field = [math.prod(self.shape[axis + 1 :]) for axis in range(self.ndim)]
        passes: List[_DimPass] = []
        for dim in range(self.ndim):
            # Axes before ``dim`` were already refined to ``half`` this level.
            target = tuple(
                slice(half, None, stride)
                if axis == dim
                else slice(0, None, half if axis < dim else stride)
                for axis in range(self.ndim)
            )
            target_shape = tuple(
                len(range(*s.indices(size))) for s, size in zip(target, self.shape)
            )
            if target_shape[dim] == 0:
                continue
            row = (
                self.ndim,
                dim,
                len(range(0, self.shape[dim], stride)),
                half * field[dim],
                half * field[dim],
                *target_shape,
                *(s.step * step for s, step in zip(target, field)),
            )
            passes.append(
                _DimPass(level, dim, target, target_shape, math.prod(target_shape), row)
            )
        return passes

    # --------------------------------------------------------------- geometry

    @property
    def anchor_shape(self) -> Tuple[int, ...]:
        """Shape of the anchor-point grid (points spaced ``2^L`` apart)."""
        return tuple(len(range(0, s, 2**self.num_levels)) for s in self.shape)

    @cached_property
    def anchor_count(self) -> int:
        """Number of anchor points (always fully loaded, never progressive)."""
        return int(np.prod(self.anchor_shape))

    @cached_property
    def sweep_sizes(self) -> Dict[int, int]:
        """Number of predicted points per sweep unit, built once: every
        header parse checks its levels against it."""
        return {unit: b - a for unit, a, b in self._spans}

    def total_points(self) -> int:
        """Anchors plus all predicted points — must equal ``prod(shape)``."""
        return self.anchor_count + self._predicted

    @property
    def stencil_norm(self) -> float:
        """Theorem 1's propagation factor ``p`` for the configured method."""
        return STENCIL_NORMS[self.method]

    @cached_property
    def layout(self) -> UnitTable:
        """The :data:`UnitTable` of :meth:`decompose`'s codes: every unit,
        end to end, coarsest first."""
        return array("q", [a for _, a, _ in self._spans])

    def units(self, flat: np.ndarray) -> Dict[int, np.ndarray]:
        """Views of ``flat`` — every pass's outputs end to end, in processing
        order — one per sweep unit, coarsest first."""
        return {unit: flat[a:b] for unit, a, b in self._spans}

    # ------------------------------------------------------------ compression

    def _field(self, data: np.ndarray) -> np.ndarray:
        """``data`` as the C-contiguous float64 field C reads, copied only
        if it is not one already."""
        data = np.asarray(data, dtype=np.float64)
        if data.shape != self.shape:
            raise ConfigurationError(
                f"data shape {data.shape} does not match predictor shape {self.shape}"
            )
        return np.ascontiguousarray(data)

    def decompose(
        self, data: np.ndarray, quantizer: LinearQuantizer
    ) -> Tuple[np.ndarray, Dict[int, np.ndarray], np.ndarray]:
        """Predict + quantize every point, running reconstruction in lock-step.

        One C call runs every pass: its prediction from the reconstruction
        ``x̂`` so far, ``y = x − pred``, ``quantizer``'s code of ``y`` (its
        bin width is all C reads; the C quantizer is bitwise
        :meth:`LinearQuantizer.quantize`, and refuses the same differences
        with the same :class:`ConfigurationError`) and ``x̂ = pred + code · w``.
        A field where some ``x̂`` misses ``x`` by more than the bound — the
        sum rounds to the field's float spacing, which may be about the bin
        width — is refused with :class:`ConfigurationError` too.

        Returns
        -------
        anchor_codes:
            ``int64`` quantized anchor values (prediction 0), flattened.
        unit_codes:
            Mapping sweep unit → flat ``int64`` quantization integers of that
            pass's targets in C order (views of one array, :meth:`units`).
        reconstruction:
            The lossy reconstruction ``x̂`` produced with the full-precision
            codes (what a non-progressive decompression would return).
        """
        data = self._field(data)
        # Every point is the anchor or the target of exactly one pass, and a
        # pass reads only points written before it.
        xhat = np.empty(self.shape, dtype=np.float64)
        anchor_codes, anchor_dequant = quantizer.roundtrip(data[self._anchor])
        xhat[self._anchor] = anchor_dequant
        codes = np.empty(self._predicted, dtype=np.int64)
        flags = self._forward(data, native.address(xhat), codes, quantizer.bin_width)
        if flags & _NO_CODE:
            raise code_range_error(quantizer.error_bound)
        if flags & _MISSED:
            raise spacing_error(quantizer.error_bound, data)
        return anchor_codes.ravel(), self.units(codes), xhat

    def transform(self, data: np.ndarray) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        """Hierarchical-basis *transform* variant of :meth:`decompose`.

        Unlike :meth:`decompose`, predictions read the **original** values of
        previously processed points, so the output coefficients are a lossless
        linear transform of the input (the multigrid/hierarchical-basis view
        used by the MGARD-like baselines).  Quantization error behaviour
        therefore follows the transform model of §4.2.1 — errors accumulate
        across levels — which is exactly the contrast with IPComp's
        prediction model the paper analyses.

        Returns ``(anchor_values, unit_coefficients)`` as float arrays in the
        same layout as :meth:`decompose`: one C call computes every pass's
        ``x − pred(x)``.
        """
        data = self._field(data)
        anchor_values = data[self._anchor].flatten()
        coeffs = np.empty(self._predicted, dtype=np.float64)
        self._forward(data, None, coeffs, 0.0)
        return anchor_values, self.units(coeffs)

    def _forward(self, data: np.ndarray, xhat: Optional[int], out: np.ndarray, w: float) -> int:
        """``ipc_forward`` over every pass: :meth:`decompose` into the
        reconstruction at address ``xhat``, :meth:`transform` without one."""
        return native.library().ipc_forward(
            native.address(data),
            xhat,
            self._table_address,
            self.num_units,
            self._cubic,
            native.address(out),
            w,
        )

    # ---------------------------------------------------------- reconstruction

    def unit_offsets(self, starts: Mapping[int, int]) -> UnitTable:
        """The :data:`UnitTable` of codes laid out at ``starts[unit]`` (an
        element offset) for each unit given; the other units have none."""
        table = array("q", [-1]) * self.num_units
        for unit, start in starts.items():
            if not 1 <= unit <= self.num_units:
                raise ConfigurationError(f"unit {unit} is not one of 1 … {self.num_units}")
            table[self.num_units - unit] = start
        return table

    def reconstruct(
        self,
        anchor_values: np.ndarray,
        codes: np.ndarray,
        offsets: UnitTable,
        bin_width: float,
        *,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Rebuild a field from dequantized anchor values and per-unit codes.

        ``codes`` is one C-contiguous 1-D ``int64`` array and ``offsets``
        the :data:`UnitTable` of where each unit's codes start in it, in the
        order :meth:`decompose` produced them (:attr:`layout` for
        ``decompose``'s own layout, :meth:`unit_offsets` for any other).
        Each sweep adds ``code · bin_width`` to its prediction, as
        :meth:`decompose` built ``x̂``.  A unit without codes adds ``+0.0``
        — what all-zero codes would do to a −0.0 prediction — which is
        exactly the semantics of not having loaded any bitplane of it.

        With ``out`` — float64, C-contiguous, of the predictor's shape — the
        field is written there and ``out`` returned; it may hold anything on
        entry, because every point is the anchor or the target of exactly
        one sweep and a sweep reads only points written before it.

        The map is linear in its inputs, so calling it with *delta* codes
        yields the delta of the reconstruction (Algorithm 2).
        """
        xhat = np.empty(self.shape, dtype=np.float64) if out is None else out
        into = native.checked(xhat, _FLOAT64, self.shape, ConfigurationError, _NOT_OUT)
        at = native.checked(codes, _INT64, None, ConfigurationError, _NOT_CODES)
        table = native.checked(offsets, "q", (self.num_units, 1), ConfigurationError, _NOT_OFFSETS)
        xhat[self._anchor] = np.asarray(anchor_values, dtype=np.float64).reshape(
            self.anchor_shape
        )
        # One C call checks every unit's codes against the buffer, then runs
        # every pass; pass ``i`` adds the codes at ``offsets[i]``, or +0.0.
        failed = native.library().ipc_reconstruct(
            into, self._table_address, self.num_units, self._cubic, at, codes.size, table, bin_width
        )
        if failed:
            unit, start, stop = self._spans[failed - 1]
            raise ConfigurationError(
                f"unit {unit} expects {stop - start} codes from offset "
                f"{offsets[failed - 1]}, past the {codes.size} codes given"
            )
        return xhat


@lru_cache(maxsize=SHARED_PREDICTORS)
def shared_predictor(shape: Tuple[int, ...], method: str) -> InterpolationPredictor:
    """The one predictor of ``(shape, method)`` that readers share.

    A predictor is read-only after construction, so every stream of one
    geometry — the equal shards of a dataset — and every thread can use the
    same instance; only the first open of a geometry builds its passes.
    Raises :class:`~repro.errors.ConfigurationError` as the constructor does.
    """
    return InterpolationPredictor(shape, method)
