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

The reconstruction map from per-level dequantized differences to the output is
*linear* (fixed stencils, additive updates), which is the property Algorithm 2
exploits for incremental refinement: feeding a *delta* of the differences
through :meth:`InterpolationPredictor.reconstruct` yields the delta of the
output.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import secrets
import shlex
import shutil
import stat
import subprocess
import sysconfig
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.core.quantizer import LinearQuantizer

#: L∞ operator norm of the interpolation stencils (Theorem 1's ``p``).
STENCIL_NORMS = {"linear": 1.0, "cubic": 1.25}

#: Predictors :func:`shared_predictor` keeps, least recently used out first.
SHARED_PREDICTORS = 32

# ------------------------------------------------------------------ the sweep
#
# Every pass runs in C (``_sweep.c``, next to this file), one call per shard
# and direction.  It is compiled at import with the platform's C compiler
# into a per-user cache and loaded with ctypes, whose calls release the GIL.
# ``-ffp-contract=off`` keeps each multiply and add its own rounding (GCC on
# aarch64 would fuse them into FMAs), so every answer is bitwise the numpy
# sweep and quantizer the predictor was first written as.

_SOURCE = Path(__file__).with_name("_sweep.c")
_FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")
_LIBS = ("-lm",)
# What a target gets on top of its prediction (``_sweep.c``'s enum).
_ADD_ZERO, _ADD_DIFF, _ADD_CODE = 0, 1, 2


def _cache_directory() -> Path:
    """``$XDG_CACHE_HOME/ipcomp-repro`` (else under ``~/.cache``), created
    ``0o700``; refused unless this user owns it and no one else can write it."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "ipcomp-repro"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.lstat()
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.geteuid() or info.st_mode & 0o022:
        raise ConfigurationError(
            f"the interpolation sweep's cache {path} is not a directory that "
            "only this user can write"
        )
    return path


def _private(path: Path) -> bool:
    """A regular file this user owns and no one else can write."""
    try:
        info = path.lstat()
    except FileNotFoundError:
        return False
    return stat.S_ISREG(info.st_mode) and info.st_uid == os.geteuid() and not info.st_mode & 0o022


def _load_sweep() -> ctypes.CDLL:
    """Build ``_sweep.c`` unless the cache holds it, and load it.

    The library's name is a hash of the source, the compiler command, the
    flags and the platform; a build lands under it by an atomic rename, so
    processes building at once each load a whole library.
    """
    cc = shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"]
    if shutil.which(cc[0]) is None:
        raise ConfigurationError(
            f"the interpolation sweep needs a C compiler: {cc[0]!r} (sysconfig's CC) "
            "is not on PATH"
        )
    build = "\0".join(
        [" ".join([*cc, *_FLAGS, *_LIBS]), sysconfig.get_platform(), platform.machine()]
    )
    key = hashlib.sha256(_SOURCE.read_bytes() + build.encode()).hexdigest()[:16]
    directory = _cache_directory()
    path = directory / f"sweep-{key}.so"
    if not _private(path):
        partial = directory / f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}"
        try:
            built = subprocess.run(
                [*cc, *_FLAGS, "-o", str(partial), str(_SOURCE), *_LIBS],
                capture_output=True,
                text=True,
            )
            if built.returncode:
                raise ConfigurationError(
                    f"building the interpolation sweep with {cc[0]!r} failed: "
                    f"{built.stderr.strip()}"
                )
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)
    lib = ctypes.CDLL(str(path))
    pointer, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.ipc_reconstruct.argtypes = [pointer, pointer, i64, i64, pointer, pointer, ctypes.c_double]
    lib.ipc_reconstruct.restype = None
    lib.ipc_forward.argtypes = [pointer, pointer, pointer, i64, i64, pointer, ctypes.c_double]
    lib.ipc_forward.restype = None
    return lib


try:
    _SWEEP: Optional[ctypes.CDLL] = _load_sweep()
    _SWEEP_MISSING = ""
except ConfigurationError as error:  # ``import repro`` still works
    _SWEEP, _SWEEP_MISSING = None, str(error)
except OSError as error:
    _SWEEP, _SWEEP_MISSING = None, f"the interpolation sweep could not be built or loaded: {error}"


def _sweep() -> ctypes.CDLL:
    """The loaded sweep; :class:`ConfigurationError` if it could not be built."""
    if _SWEEP is None:
        raise ConfigurationError(_SWEEP_MISSING)
    return _SWEEP


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
    #: Position in processing order (coarsest level first, then ``dim``).
    index: int
    target: Tuple[slice, ...]
    target_shape: Tuple[int, ...]
    #: Points in the sweep, ``prod(target_shape)``.
    size: int
    row: Tuple[int, ...]


class InterpolationPredictor:
    """Shared decorrelation engine of IPComp and the SZ3 baseline.

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
        self._passes: Dict[int, List[_DimPass]] = {}
        ordered: List[_DimPass] = []
        for level in range(self.num_levels, 0, -1):
            self._passes[level] = self._build_level_passes(level, len(ordered))
            ordered.extend(self._passes[level])
        # Sweep-granular ("unit") numbering: every (level, dim) pass gets its
        # own number, processed from ``num_units`` (coarsest sweep) down to 1
        # (the final, finest sweep).  IPComp's progressive blocks are grouped
        # per unit because the paper's p^(l−1) propagation bound is exact at
        # this granularity: the loss of unit ``u`` passes through exactly
        # ``u − 1`` later prediction sweeps.
        self.num_units = len(ordered)
        #: Points the passes predict: every point but the anchors.
        self._predicted = sum(p.size for p in ordered)
        self._unit_passes: Dict[int, _DimPass] = {
            self.num_units - p.index: p for p in ordered
        }
        self._table = np.array([p.row for p in ordered], dtype=np.int64).reshape(
            self.num_units, 5 + 2 * self.ndim
        )
        self._table_address = self._table.ctypes.data
        self._cubic = int(method == "cubic")
        # Per granularity: each group's key, its first pass, the offsets of
        # its passes' diffs in the group's flat array, and its size.
        self._layouts: Dict[str, List[Tuple[int, int, List[int], int]]] = {}
        for granularity in ("level", "sweep"):
            layout = self._layouts[granularity] = []
            for key, passes in self._groups(granularity):
                starts = list(accumulate((p.size for p in passes), initial=0))
                first = passes[0].index if passes else 0
                layout.append((key, first, starts[:-1], starts[-1]))

    def _groups(self, granularity: str) -> List[Tuple[int, List[_DimPass]]]:
        """Processing-order grouping of passes, keyed per level or per sweep."""
        if granularity == "level":
            return [
                (level, self._passes[level])
                for level in range(self.num_levels, 0, -1)
            ]
        if granularity == "sweep":
            return [
                (unit, [self._unit_passes[unit]])
                for unit in range(self.num_units, 0, -1)
            ]
        raise ConfigurationError(f"granularity must be 'level' or 'sweep', got {granularity!r}")

    # ------------------------------------------------------------------ setup

    def _build_level_passes(self, level: int, first: int) -> List[_DimPass]:
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
                _DimPass(
                    level, dim, first + len(passes), target, target_shape,
                    math.prod(target_shape), row,
                )
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

    def level_sizes(self, granularity: str = "level") -> Dict[int, int]:
        """Number of predicted points per group, keyed by level or sweep unit."""
        return {
            key: sum(p.size for p in passes)
            for key, passes in self._groups(granularity)
        }

    @cached_property
    def sweep_sizes(self) -> Dict[int, int]:
        """``level_sizes("sweep")``, built once: every header parse checks
        its levels against it."""
        return self.level_sizes("sweep")

    def total_points(self) -> int:
        """Anchors plus all predicted points — must equal ``prod(shape)``."""
        return self.anchor_count + sum(self.level_sizes().values())

    @property
    def stencil_norm(self) -> float:
        """Theorem 1's propagation factor ``p`` for the configured method."""
        return STENCIL_NORMS[self.method]

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

    def _cut(self, flat: np.ndarray, granularity: str) -> Dict[int, np.ndarray]:
        """Views of ``flat`` (room for every pass's outputs in processing
        order), one per group of ``granularity``."""
        if granularity not in self._layouts:
            raise ConfigurationError(
                f"granularity must be 'level' or 'sweep', got {granularity!r}"
            )
        cut: Dict[int, np.ndarray] = {}
        start = 0
        for key, _, _, size in self._layouts[granularity]:
            cut[key] = flat[start : start + size]
            start += size
        return cut

    def decompose(
        self,
        data: np.ndarray,
        quantizer: LinearQuantizer,
        granularity: str = "level",
    ) -> Tuple[np.ndarray, Dict[int, np.ndarray], np.ndarray]:
        """Predict + quantize every point, running reconstruction in lock-step.

        One C call runs every pass: its prediction from the reconstruction
        ``x̂`` so far, ``y = x − pred``, ``quantizer``'s code of ``y`` (its
        bin width is all C reads; the C quantizer is bitwise
        :meth:`LinearQuantizer.quantize`) and ``x̂ = pred + code · w``.

        Returns
        -------
        anchor_codes:
            ``int64`` quantized anchor values (prediction 0), flattened.
        level_codes:
            Mapping level → flat ``int64`` quantization integers of every
            (dim sweep) of that level, concatenated in sweep order (views of
            one array).
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
        level_codes = self._cut(codes, granularity)
        _sweep().ipc_forward(
            data.ctypes.data,
            xhat.ctypes.data,
            self._table_address,
            self.num_units,
            self._cubic,
            codes.ctypes.data,
            quantizer.bin_width,
        )
        return anchor_codes.ravel(), level_codes, xhat

    def transform(
        self, data: np.ndarray, granularity: str = "level"
    ) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        """Hierarchical-basis *transform* variant of :meth:`decompose`.

        Unlike :meth:`decompose`, predictions read the **original** values of
        previously processed points, so the output coefficients are a lossless
        linear transform of the input (the multigrid/hierarchical-basis view
        used by the MGARD-like baseline).  :meth:`reconstruct` is its exact
        inverse.  Quantization error behaviour therefore follows the transform
        model of §4.2.1 — errors accumulate across levels — which is exactly
        the contrast with IPComp's prediction model the paper analyses.

        Returns ``(anchor_values, level_coefficients)`` as float arrays in the
        same flattened sweep order as :meth:`decompose`: one C call computes
        every pass's ``x − pred(x)``.
        """
        data = self._field(data)
        anchor_values = data[self._anchor].flatten()
        coeffs = np.empty(self._predicted, dtype=np.float64)
        level_coeffs = self._cut(coeffs, granularity)
        _sweep().ipc_forward(
            data.ctypes.data,
            None,
            self._table_address,
            self.num_units,
            self._cubic,
            coeffs.ctypes.data,
            0.0,
        )
        return anchor_values, level_coeffs

    # ---------------------------------------------------------- reconstruction

    def reconstruct(
        self,
        anchor_values: np.ndarray,
        level_diffs: Mapping[int, np.ndarray],
        granularity: str = "level",
        *,
        out: Optional[np.ndarray] = None,
        bin_width: Optional[float] = None,
    ) -> np.ndarray:
        """Rebuild a field from dequantized anchor values and per-level diffs.

        ``level_diffs[level]`` must hold the dequantized prediction differences
        of that level in the same flattened sweep order :meth:`decompose`
        produced them.  Missing levels are treated as all-zero diffs, which is
        exactly the semantics of not having loaded any bitplane of that level.

        With ``bin_width``, ``level_diffs`` holds the integer quantization
        codes instead, and each sweep adds ``codes · bin_width`` to its
        prediction: the float operations of dequantizing first (an int64 →
        float64 conversion is exact below 2^53, and the multiply is
        elementwise), so the result is bitwise the same, with no
        level-sized float copy of the codes.

        With ``out`` — float64, C-contiguous, of the predictor's shape — the
        field is written there and ``out`` returned; it may hold anything on
        entry, because every point is the anchor or the target of exactly
        one sweep and a sweep reads only points written before it.

        The map is linear in its inputs, so calling it with *delta* diffs
        yields the delta of the reconstruction (Algorithm 2).
        """
        if out is None:
            xhat = np.empty(self.shape, dtype=np.float64)
        elif out.dtype != np.float64 or out.shape != self.shape or not out.flags.c_contiguous:
            raise ConfigurationError(
                f"out must be a C-contiguous float64 array of shape {self.shape}, "
                f"got {out.dtype} {out.shape}"
            )
        else:
            xhat = out
        xhat[self._anchor] = np.asarray(anchor_values, dtype=np.float64).reshape(
            self.anchor_shape
        )
        # One C call runs every pass; pass ``i`` adds the diffs or codes at
        # ``adds[i]`` (a missing group adds +0.0 — what all-zero diffs would
        # do to a −0.0 prediction — without building the zeros).
        adds = np.zeros(self.num_units, dtype=np.uintp)
        kinds = np.full(self.num_units, _ADD_ZERO, dtype=np.int64)
        held = []  # the arrays ``adds`` points into, alive until the call returns
        for key, first, offsets, expected in self._layouts[granularity]:
            diffs = level_diffs.get(key)
            if diffs is None:
                continue
            if bin_width is None:
                diffs, kind = np.asarray(diffs, dtype=np.float64), _ADD_DIFF
            else:
                diffs = np.asarray(diffs)
                if diffs.dtype == np.int64:
                    kind = _ADD_CODE
                else:  # the float diffs numpy's promotion makes of them
                    diffs, kind = np.asarray(diffs * bin_width, dtype=np.float64), _ADD_DIFF
            diffs = diffs.ravel()  # C-contiguous, copied only if it was not
            if diffs.size != expected:
                raise ConfigurationError(
                    f"group {key} expects {expected} diffs, got {diffs.size}"
                )
            held.append(diffs)
            address = diffs.ctypes.data
            for index, offset in enumerate(offsets, first):
                adds[index] = address + offset * diffs.itemsize
                kinds[index] = kind
        _sweep().ipc_reconstruct(
            xhat.ctypes.data,
            self._table_address,
            self.num_units,
            self._cubic,
            adds.ctypes.data,
            kinds.ctypes.data,
            0.0 if bin_width is None else bin_width,
        )
        return xhat

    # ------------------------------------------------------------------ misc

    def describe(self) -> Dict[int, Dict[str, object]]:
        """Human-readable summary of the level layout (used by the CLI)."""
        summary: Dict[int, Dict[str, object]] = {}
        for level, passes in self._passes.items():
            summary[level] = {
                "stride": 2**level,
                "points": sum(p.size for p in passes),
                "sweeps": [(p.dim, p.target_shape) for p in passes],
            }
        return summary


@lru_cache(maxsize=SHARED_PREDICTORS)
def shared_predictor(shape: Tuple[int, ...], method: str) -> InterpolationPredictor:
    """The one predictor of ``(shape, method)`` that readers share.

    A predictor is read-only after construction, so every stream of one
    geometry — the equal shards of a dataset — and every thread can use the
    same instance; only the first open of a geometry builds its passes.
    Raises :class:`~repro.errors.ConfigurationError` as the constructor does.
    """
    return InterpolationPredictor(shape, method)
