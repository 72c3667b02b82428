"""PMGARD: progressive multigrid (MGARD-style) compressor (§6.1.3, refs. [23, 34]).

MGARD decomposes a field on a hierarchy of nested grids using a piecewise-
linear (hierarchical-basis) decomposition; PMGARD adds progressive retrieval
by encoding the multilevel coefficients bitplane by bitplane.

This reproduction builds the decomposition with
:meth:`repro.core.interpolation.InterpolationPredictor.transform` (linear
method), i.e. coefficients are computed against the *original* coarse values —
a transform model in the paper's §4.2 terminology.  Consequently quantization
errors of different levels add up, and the per-level quantizer must be
``Σ_l s_l + 1`` times finer than the user bound to guarantee it.  That is the
structural reason PMGARD's compression ratio trails IPComp's in the paper, and
the effect reproduces here without any further tuning.

The bitplane blocks, the stream container, the knapsack loader and the
progressive retriever are shared with IPComp (the inverse transform is the
same reconstruction routine), so PMGARD also serves arbitrary error-bound and
bitrate requests in a single pass — its disadvantage is purely the ratio.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.base import ProgressiveCompressor, RetrievalOutcome, validate_field
from repro.core.interpolation import InterpolationPredictor
from repro.core.predictive_coder import PredictiveCoder
from repro.core.profile import CodecProfile
from repro.core.progressive import ProgressiveRetriever
from repro.core.quantizer import LinearQuantizer
from repro.core.stream import IPCompStream, StreamHeader
from repro.core.theory import level_sweep_counts


def _quantizer_refinement(shape, num_levels: int) -> int:
    """How much finer than the user bound the per-level quantizer must be."""
    sweeps = level_sweep_counts(shape, num_levels)
    return sum(sweeps.values()) + 1  # +1 for the anchor values


class PMGARDCompressor(ProgressiveCompressor):
    """Progressive hierarchical-basis (MGARD-like) compressor."""

    name = "pmgard"

    def __init__(
        self,
        error_bound: float = 1e-6,
        relative: bool = True,
        prefix_bits: int = 2,
    ) -> None:
        super().__init__(error_bound, relative)
        self.prefix_bits = int(prefix_bits)

    # ------------------------------------------------------------ compression

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        eb_user = self.absolute_bound(data)
        predictor = InterpolationPredictor(data.shape, "linear")
        refinement = _quantizer_refinement(data.shape, predictor.num_levels)
        eb_q = eb_user / refinement
        quantizer = LinearQuantizer(eb_q)
        coder = PredictiveCoder(quantizer, CodecProfile(prefix_bits=self.prefix_bits))

        anchor_values, unit_coeffs = predictor.transform(data)
        anchor_codes = quantizer.quantize(anchor_values)
        anchor_block = coder.encode_anchor(anchor_codes)
        encodings = [
            coder.encode_level(unit, quantizer.quantize(coeffs))
            for unit, coeffs in unit_coeffs.items()
        ]
        header = StreamHeader(
            shape=tuple(data.shape),
            dtype=str(data.dtype),
            error_bound=eb_q,
            method="linear",
            prefix_bits=self.prefix_bits,
            anchor_coder=coder.anchor_coder,
            anchor_count=int(anchor_codes.size),
            anchor_size=len(anchor_block),
            levels=encodings,
        )
        return IPCompStream.serialize(header, anchor_block, encodings)

    # ---------------------------------------------------------- decompression

    def decompress(self, blob: bytes) -> np.ndarray:
        retriever = ProgressiveRetriever(blob)
        return retriever.retrieve(error_bound=retriever.header.error_bound).data

    # -------------------------------------------------------------- retrieval

    def retrieve(
        self,
        blob: bytes,
        error_bound: Optional[float] = None,
        bitrate: Optional[float] = None,
    ) -> RetrievalOutcome:
        """Partial retrieval; single pass, arbitrary bounds/bitrates.

        For the transform model the *full-precision* error is already
        ``refinement × eb_q`` (quantization errors accumulate over levels), so
        an error-bound request must reserve that much of its budget before the
        bitplane-truncation loss is allowed to use the rest.
        """
        self._check_request(error_bound, bitrate)
        retriever = ProgressiveRetriever(blob)
        header = retriever.header
        # Stream groups are per sweep, so the accumulated quantization error of
        # a full retrieval is (number of sweeps + anchor) times the per-group
        # quantizer bound.
        refinement = len(header.levels) + 1
        full_error = header.error_bound * refinement
        if error_bound is not None:
            # Reserve the accumulated quantization error, then hand the
            # remaining budget to the plane-selection optimizer.
            truncation_budget = max(error_bound - full_error, 0.0)
            adjusted = header.error_bound + truncation_budget
            result = retriever.retrieve(error_bound=adjusted)
            achieved = result.error_bound - header.error_bound + full_error
        else:
            result = retriever.retrieve(bitrate=bitrate)
            achieved = result.error_bound - header.error_bound + full_error
        return RetrievalOutcome(
            data=result.data,
            bytes_loaded=result.bytes_loaded,
            passes=1,
            achieved_bound=achieved,
        )
