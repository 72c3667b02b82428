"""The numpy oracle of the interpolation sweep: one numpy pass per sweep.

This is the test-side half of the sweep's bitwise contract: the one C sweep
of :mod:`repro.core.interpolation` (``_sweep.c``) must return, on every path,
bitwise what these numpy passes return.  Nothing in ``src/`` imports it.

The bodies are the predictor's former ones, kept as they were: each
(level, dim) pass reads its known points as a strided view with ``dim``
swapped to the front, runs each stencil on its own sub-slice, and the
caller adds ``codes · bin_width`` (or ``0.0``) in numpy.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.interpolation import InterpolationPredictor
from repro.core.quantizer import LinearQuantizer, spacing_error
from repro.errors import ConfigurationError

#: ``_sweep.c``'s SLACK: how far past half a bin, relative to it, a
#: reconstructed value may land before the field is refused.
SLACK = 2.0**-20


def packed(
    predictor: InterpolationPredictor, unit_codes: Mapping[int, np.ndarray]
) -> Tuple[np.ndarray, array]:
    """``reconstruct``'s codes and offsets from codes given per unit: the
    units end to end in the order given, in their own dtype."""
    parts = [np.asarray(codes).ravel() for codes in unit_codes.values()]
    starts = accumulate((part.size for part in parts), initial=0)
    codes = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    return codes, predictor.unit_offsets(dict(zip(unit_codes, starts)))


class OracleSweepPredictor(InterpolationPredictor):
    """:class:`InterpolationPredictor` with the numpy sweep; answer for answer the same."""

    def _known(self, p) -> Tuple[slice, ...]:
        """``p.target`` with axis ``dim`` moved onto the known points."""
        stride = 2**p.level
        return p.target[: p.dim] + (slice(0, None, stride),) + p.target[p.dim + 1 :]

    def _predict_pass(self, buffer: np.ndarray, p) -> np.ndarray:
        """Predict the target points of one (level, dim) sweep from ``buffer``.

        With axis ``dim`` in front there are ``k`` known points and ``k − 1``
        or ``k`` targets: target ``i < k − 1`` averages its two neighbours
        (cubic: the 4-point stencil where ``1 ≤ i < k − 2``), and a trailing
        target ``k − 1`` with no right neighbour copies the left one.  Each
        formula runs on its own sub-slice only.
        """
        known = buffer[self._known(p)].swapaxes(0, p.dim)
        prediction = np.empty(p.target_shape, dtype=np.float64)
        out = prediction.swapaxes(0, p.dim)
        k = known.shape[0]
        lo, hi = (1, k - 2) if self.method == "cubic" and k > 3 else (k - 1, k - 1)
        for a, b in ((0, lo), (hi, k - 1)):
            if b > a:
                np.add(known[a:b], known[a + 1 : b + 1], out=out[a:b])
                out[a:b] *= 0.5
        if hi > lo:
            out[lo:hi] = (
                -known[lo - 1 : hi - 1] / 16.0
                + 9.0 * known[lo:hi] / 16.0
                + 9.0 * known[lo + 1 : hi + 1] / 16.0
                - known[lo + 2 : hi + 2] / 16.0
            )
        if out.shape[0] == k:
            out[k - 1] = known[k - 1]
        return prediction

    def decompose(
        self, data: np.ndarray, quantizer: LinearQuantizer
    ) -> Tuple[np.ndarray, Dict[int, np.ndarray], np.ndarray]:
        data = np.asarray(data, dtype=np.float64)
        if data.shape != self.shape:
            raise ConfigurationError(
                f"data shape {data.shape} does not match predictor shape {self.shape}"
            )
        xhat = np.zeros(self.shape, dtype=np.float64)

        anchor_codes, anchor_dequant = quantizer.roundtrip(data[self._anchor])
        xhat[self._anchor] = anchor_dequant

        unit_codes: Dict[int, np.ndarray] = {}
        missed = False
        for unit, p in zip(range(self.num_units, 0, -1), self._passes):
            prediction = self._predict_pass(xhat, p)
            codes, dequant = quantizer.roundtrip(data[p.target] - prediction)
            np.add(prediction, dequant, out=xhat[p.target])
            # ``x̂`` rounds to the field's float spacing: it may miss by more
            # than the bound though the code is within half a bin.
            limit = 0.5 * quantizer.bin_width * (1.0 + SLACK)
            missed |= bool((np.abs(data[p.target] - xhat[p.target]) > limit).any())
            unit_codes[unit] = codes.ravel()
        if missed:
            raise spacing_error(quantizer.error_bound, data)
        return anchor_codes.ravel(), unit_codes, xhat

    def transform(self, data: np.ndarray) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
        data = np.asarray(data, dtype=np.float64)
        if data.shape != self.shape:
            raise ConfigurationError(
                f"data shape {data.shape} does not match predictor shape {self.shape}"
            )
        anchor_values = data[self._anchor].flatten()
        unit_coeffs: Dict[int, np.ndarray] = {}
        for unit, p in zip(range(self.num_units, 0, -1), self._passes):
            prediction = self._predict_pass(data, p)
            unit_coeffs[unit] = (data[p.target] - prediction).ravel()
        return anchor_values, unit_coeffs

    def reconstruct(
        self,
        anchor_values: np.ndarray,
        unit_codes: Mapping[int, np.ndarray],
        bin_width: float,
        *,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
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
        for unit, p in zip(range(self.num_units, 0, -1), self._passes):
            prediction = self._predict_pass(xhat, p)
            codes = unit_codes.get(unit)
            # A missing unit still adds +0.0 — what all-zero codes would do
            # to a −0.0 prediction — without building the zeros.
            if codes is None:
                block = 0.0
            else:
                codes = np.asarray(codes)
                if codes.dtype != np.int64:
                    raise ConfigurationError(
                        f"unit {unit} codes must be int64, got {codes.dtype}"
                    )
                if codes.size != p.size:
                    raise ConfigurationError(
                        f"unit {unit} expects {p.size} codes, got {codes.size}"
                    )
                block = codes.reshape(p.target_shape) * bin_width
            np.add(prediction, block, out=xhat[p.target])
        return xhat
