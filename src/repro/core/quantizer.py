"""Error-bounded linear-scale quantization (Figure 1's ``Q`` stage).

The quantizer maps a prediction difference ``y`` to the integer
``q = round(y / (2·eb))`` and back to ``ŷ = q · 2·eb``.  Mid-tread rounding
guarantees the point-wise property ``|y − ŷ| ≤ eb`` that the prediction-model
error analysis of §4.2.2 relies on, level by level.

A reproduction note on bin width: SZ-family compressors quantize with bins of
width ``2·eb`` so that rounding to the bin centre keeps the error within
``eb``; the same convention is used here.

A floating-point note: :meth:`LinearQuantizer.quantize` verifies the chosen
code against the decoder's own ``float64`` arithmetic and nudges it when the
rounded division landed a bin off (possible when ``|y| / (2·eb)`` approaches
``2^52``), so the bound holds up to the unavoidable half-ulp of representing
the bin centre ``q · 2·eb`` as a ``float64``.  A value to quantize (a
difference, an anchor, a coefficient) whose rounded quotient is NaN or at
least ``2^63`` in magnitude has no ``int64`` code, and the field is refused
with :class:`ConfigurationError` (:func:`code_range_error`); so is a field
whose interpolated reconstruction, rounded to its own float spacing, would
miss the bound (:func:`spacing_error`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LinearQuantizer:
    """Uniform mid-tread quantizer with half-bin error bound ``error_bound``.

    IPComp's write quantizes inside the C sweep
    (:meth:`~repro.core.interpolation.InterpolationPredictor.decompose`,
    ``quantize`` in ``core/_sweep.c``), which reads only :attr:`bin_width`
    and is bitwise :meth:`quantize`; this class quantizes the anchors and
    the MGARD baselines' coefficients.
    """

    error_bound: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.error_bound) or self.error_bound <= 0:
            raise ConfigurationError(
                f"error_bound must be a positive finite number, got {self.error_bound!r}"
            )

    @property
    def bin_width(self) -> float:
        """Width of a quantization bin (``2·eb``)."""
        return 2.0 * self.error_bound

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantize floating-point differences to ``int64`` bin indices."""
        bin_width = self.bin_width
        values = np.asarray(values, dtype=np.float64)
        rounded = np.rint(values / bin_width)
        # NaN fails the comparison too.  Below 2^63 the last double is
        # 2^63 − 1024, so neither the cast nor the nudges overflow.
        if not (np.abs(rounded) < 2.0**63).all():
            raise code_range_error(self.error_bound)
        codes = rounded.astype(np.int64)
        # Rounding in the divide can land on the wrong side of a half-bin
        # boundary when |value| / bin_width approaches 2^52, so the decoder's
        # reconstruction (codes · bin_width, computed in float64) could
        # overshoot the half-bin error bound by a few ulps.  Nudge offending
        # codes until the bound holds in the decoder's own arithmetic.
        half = 0.5 * bin_width
        for _ in range(2):
            err = values - codes.astype(np.float64) * bin_width
            mask = np.abs(err) > half
            if not mask.any():
                break
            codes = codes + np.where(mask, np.sign(err).astype(np.int64), 0)
        return codes

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """Map bin indices back to the bin-centre floating point values."""
        return np.asarray(codes, dtype=np.float64) * self.bin_width

    def roundtrip(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quantize then dequantize; convenience used by the compressors.

        Returns ``(codes, reconstructed)`` where
        ``|values − reconstructed| ≤ error_bound`` element-wise.
        """
        codes = self.quantize(values)
        return codes, self.dequantize(codes)


def code_range_error(error_bound: float) -> ConfigurationError:
    """The refusal of a field some value to quantize of which has no ``int64`` code."""
    return ConfigurationError(
        f"error bound {error_bound!r} is too fine for this field: a value to "
        f"quantize of {2.0**63 * 2.0 * error_bound:.3g} or more in magnitude "
        "(or a NaN) has no int64 quantization code"
    )


def spacing_error(error_bound: float, data: np.ndarray) -> ConfigurationError:
    """The refusal of a field whose float64 spacing cannot hold the bound: a
    reconstruction ``prediction + code · 2·eb`` rounds to that spacing."""
    largest = float(np.abs(data).max())
    return ConfigurationError(
        f"error bound {error_bound!r} is too fine for this field: float64 values "
        f"near its largest magnitude {largest:.6g} are {np.spacing(largest):.3g} "
        "apart, and a reconstructed value would miss the bound"
    )


def relative_to_absolute(relative_bound: float, data: np.ndarray) -> float:
    """Convert a value-range-relative bound to an absolute one.

    The paper (and SDRBench practice) specifies bounds like ``1e-6`` as a
    fraction of the field's value range; an all-constant field degenerates to
    a tiny positive bound so the quantizer stays well defined.  A NaN or
    infinity in ``data`` makes the range it scans for not finite, and that
    is what the error names (it is no fault of the bound).
    """
    if relative_bound <= 0:
        raise ConfigurationError("relative bound must be positive")
    data = np.asarray(data)
    with np.errstate(invalid="ignore", over="ignore"):
        value_range = float(data.max() - data.min()) if data.size else 0.0
    if not np.isfinite(value_range):
        raise ConfigurationError(
            f"a range-relative error bound requires finite input values "
            f"(the value range is {value_range})"
        )
    if value_range == 0.0:
        value_range = 1.0
    return relative_bound * value_range
