"""SPERR-like wavelet compressor (§6.2.3, ref. [22]).

SPERR runs a CDF 9/7 wavelet transform, encodes the coefficients with a
SPECK-style embedded coder, and fixes any point whose error exceeds the bound
with an explicit outlier-correction pass.  This reproduction keeps the three
stages — multi-level CDF 9/7 lifting, uniform coefficient quantization +
DEFLATE, and an outlier pass that *guarantees* the point-wise bound — while
simplifying the embedded coder away (it is only used for the Figure 8/9 speed
study, where the paper itself drops SPERR-R from the full evaluation for being
too slow).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import LossyCompressor, pack_sections, unpack_sections, validate_field
from repro.baselines.residual import ResidualProgressiveCompressor
from repro.coders.zlib_backend import ZlibCoder
from repro.errors import StreamFormatError

# CDF 9/7 lifting coefficients (JPEG2000 irreversible transform).
_ALPHA = -1.586134342059924
_BETA = -0.052980118572961
_GAMMA = 0.882911075530934
_DELTA = 0.443506852043971
_KAPPA = 1.230174104914001


def _dwt_1d(signal: np.ndarray, axis: int) -> Tuple[np.ndarray, np.ndarray]:
    """One CDF 9/7 lifting step along ``axis`` → (approximation, detail)."""
    x = np.moveaxis(signal, axis, -1)
    n = x.shape[-1]
    if n % 2:
        x = np.concatenate([x, x[..., -1:]], axis=-1)
        n += 1
    even = x[..., 0::2].copy()
    odd = x[..., 1::2].copy()

    def _sym(arr):
        # symmetric extension of the last sample for boundary handling
        return np.concatenate([arr, arr[..., -1:]], axis=-1)

    odd += _ALPHA * (even + _sym(even)[..., 1:])
    even += _BETA * (np.concatenate([odd[..., :1], odd], axis=-1)[..., :-1] + odd)
    odd += _GAMMA * (even + _sym(even)[..., 1:])
    even += _DELTA * (np.concatenate([odd[..., :1], odd], axis=-1)[..., :-1] + odd)
    approx = _KAPPA * even
    detail = odd / _KAPPA
    return np.moveaxis(approx, -1, axis), np.moveaxis(detail, -1, axis)


def _idwt_1d(approx: np.ndarray, detail: np.ndarray, axis: int, length: int) -> np.ndarray:
    """Invert :func:`_dwt_1d` and trim back to ``length`` samples."""
    even = np.moveaxis(approx, axis, -1) / _KAPPA
    odd = np.moveaxis(detail, axis, -1) * _KAPPA

    def _sym(arr):
        return np.concatenate([arr, arr[..., -1:]], axis=-1)

    even = even - _DELTA * (np.concatenate([odd[..., :1], odd], axis=-1)[..., :-1] + odd)
    odd = odd - _GAMMA * (even + _sym(even)[..., 1:])
    even = even - _BETA * (np.concatenate([odd[..., :1], odd], axis=-1)[..., :-1] + odd)
    odd = odd - _ALPHA * (even + _sym(even)[..., 1:])

    n = even.shape[-1] + odd.shape[-1]
    out = np.empty(even.shape[:-1] + (n,), dtype=np.float64)
    out[..., 0::2] = even
    out[..., 1::2] = odd
    out = out[..., :length]
    return np.moveaxis(out, -1, axis)


def wavelet_forward(data: np.ndarray, levels: int) -> Tuple[np.ndarray, List[dict]]:
    """Multi-level separable CDF 9/7 transform.

    Returns the final approximation band and, per level, the detail bands plus
    the axis lengths needed to invert exactly.
    """
    approx = np.asarray(data, dtype=np.float64)
    plan: List[dict] = []
    for _ in range(levels):
        if min(approx.shape) < 2:
            break
        record = {"lengths": approx.shape, "details": {}}
        for axis in range(approx.ndim):
            approx, detail = _dwt_1d(approx, axis)
            record["details"][axis] = detail
        plan.append(record)
    return approx, plan


def wavelet_inverse(approx: np.ndarray, plan: List[dict]) -> np.ndarray:
    """Invert :func:`wavelet_forward`."""
    out = approx
    for record in reversed(plan):
        lengths = record["lengths"]
        for axis in range(out.ndim - 1, -1, -1):
            # ``lengths[axis]`` is the extent along ``axis`` before this
            # level's forward step (other axes do not change it).
            out = _idwt_1d(out, record["details"][axis], axis, lengths[axis])
    return out


class SPERRCompressor(LossyCompressor):
    """Wavelet + uniform quantization + outlier-correction compressor."""

    name = "sperr"

    def __init__(
        self, error_bound: float = 1e-6, relative: bool = True, levels: int = 3
    ) -> None:
        super().__init__(error_bound, relative)
        self.levels = int(levels)
        self._zlib = ZlibCoder()

    # ------------------------------------------------------------ compression

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        eb = self.absolute_bound(data)
        work = np.asarray(data, dtype=np.float64)
        approx, plan = wavelet_forward(work, self.levels)

        # Uniform coefficient quantization; the outlier pass below restores
        # the guarantee regardless of how the wavelet redistributes error.
        step = eb
        sections: List[bytes] = []
        layout = {"approx_shape": list(approx.shape), "levels": []}
        q_approx = np.rint(approx / step).astype(np.int64)
        sections.append(self._zlib.encode(q_approx.tobytes()))
        dq_plan: List[dict] = []
        for record in plan:
            level_meta = {"lengths": list(record["lengths"]), "details": {}}
            dq_details = {}
            for axis, detail in record["details"].items():
                q_detail = np.rint(detail / step).astype(np.int64)
                sections.append(self._zlib.encode(q_detail.tobytes()))
                level_meta["details"][str(axis)] = list(detail.shape)
                dq_details[axis] = q_detail.astype(np.float64) * step
            layout["levels"].append(level_meta)
            dq_plan.append({"lengths": record["lengths"], "details": dq_details})

        reconstructed = wavelet_inverse(q_approx.astype(np.float64) * step, dq_plan)
        error = work - reconstructed
        outlier_mask = np.abs(error) > eb
        outlier_indices = np.flatnonzero(outlier_mask)
        outlier_codes = np.rint(error.ravel()[outlier_indices] / eb).astype(np.int64)
        sections.append(self._zlib.encode(outlier_indices.astype(np.int64).tobytes()))
        sections.append(self._zlib.encode(outlier_codes.tobytes()))

        meta = {
            "shape": list(data.shape),
            "dtype": str(data.dtype),
            "error_bound": eb,
            "step": step,
            "layout": layout,
        }
        return pack_sections(meta, sections)

    # ---------------------------------------------------------- decompression

    def decompress(self, blob: bytes) -> np.ndarray:
        meta, sections = unpack_sections(blob)
        shape = tuple(meta["shape"])
        step = float(meta["step"])
        eb = float(meta["error_bound"])
        layout = meta["layout"]
        levels = layout["levels"]
        if len(sections) != 3 + sum(len(level["details"]) for level in levels):
            raise StreamFormatError(f"SPERR stream carries {len(sections)} sections")
        count = math.prod(shape)

        cursor = 0
        approx = self._coefficients(sections[cursor], layout["approx_shape"]) * step
        cursor += 1
        plan = []
        for level_meta in levels:
            details = {}
            for axis_str, det_shape in level_meta["details"].items():
                details[int(axis_str)] = self._coefficients(sections[cursor], det_shape) * step
                cursor += 1
            plan.append({"lengths": tuple(level_meta["lengths"]), "details": details})
        out = wavelet_inverse(approx, plan)

        # At most one outlier a point; one byte over, so that more shows.
        indices = np.frombuffer(self._zlib.decode(sections[cursor], 8 * count + 1), np.int64)
        cursor += 1
        codes = np.frombuffer(self._zlib.decode(sections[cursor], 8 * count + 1), np.int64)
        if (
            indices.size > count
            or codes.size != indices.size
            or indices.size and not 0 <= indices.min() <= indices.max() < count
        ):
            raise StreamFormatError(
                f"SPERR outlier sections hold {indices.size} indices and {codes.size} "
                f"codes for a field of {count} points"
            )
        flat = out.reshape(-1)
        flat[indices] += codes.astype(np.float64) * eb
        return flat.reshape(shape).astype(meta["dtype"])

    def _coefficients(self, section: bytes, shape: Sequence[int]) -> np.ndarray:
        """A section's quantized coefficients as a float64 array of ``shape``;
        a section that holds any other number of them is a
        :class:`StreamFormatError`."""
        shape = tuple(shape)
        expected = 8 * math.prod(shape)
        # One byte past the coefficients, so that an over-long section shows.
        raw = self._zlib.decode(section, expected + 1)
        if len(raw) != expected:
            raise StreamFormatError(
                f"SPERR coefficient section holds {len(raw)} bytes, expected "
                f"{expected} for a {shape} band"
            )
        return np.frombuffer(raw, dtype=np.int64).reshape(shape).astype(np.float64)


class SPERRResidualCompressor(ResidualProgressiveCompressor):
    """SPERR-R: residual ladder over the wavelet compressor (speed study only)."""

    name = "sperr-r"

    def __init__(
        self,
        error_bound: float = 1e-6,
        relative: bool = True,
        rungs: int = 5,
        factor: float = 4.0,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(
            base_factory=lambda bound: SPERRCompressor(error_bound=bound, relative=False),
            error_bound=error_bound,
            relative=relative,
            rungs=rungs,
            factor=factor,
            bounds=bounds,
        )
