"""Public façade of the IPComp compressor.

:class:`IPComp` wires the pipeline of Figure 2 together:

``InterpolationPredictor`` → ``LinearQuantizer`` → ``PredictiveCoder`` →
``IPCompStream`` for compression, and ``ProgressiveRetriever`` (+ the
``OptimizedLoader``) for single-pass decompression at any fidelity.

Configuration is one :class:`~repro.core.profile.CodecProfile`; keyword
arguments are conveniences that override profile fields and are validated
against them — an unknown option raises instead of being silently ignored.

Typical use::

    from repro import CodecProfile, IPComp

    comp = IPComp(error_bound=1e-6, relative=True)
    blob = comp.compress(field)

    # full-precision decompression
    full = comp.decompress(blob)

    # progressive retrieval
    retriever = comp.retriever(blob)
    coarse = retriever.retrieve(error_bound=1e-2)
    finer  = retriever.retrieve(error_bound=1e-4)      # loads only the delta
    exact  = retriever.retrieve(bitrate=4.0)           # or budget the I/O

    # or hand the whole configuration over as one object
    profile = CodecProfile(error_bound=1e-5, method="linear", prefix_bits=3)
    comp = IPComp(profile=profile)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.interpolation import shared_predictor
from repro.core.predictive_coder import PredictiveCoder
from repro.core.profile import CodecProfile
from repro.core.progressive import ProgressiveRetriever, RetrievalResult
from repro.core.quantizer import LinearQuantizer
from repro.core.stream import IPCompStream, StreamHeader
from repro.errors import ConfigurationError

#: The v1-era per-compressor configuration class is the unified codec
#: profile now; the old name still resolves, but the field set is the
#: profile's — a breaking release, reflected in the package version.
IPCompConfig = CodecProfile


class IPComp:
    """Interpolation-based progressive lossy compressor (the paper's IPComp)."""

    def __init__(
        self,
        error_bound: Optional[float] = None,
        relative: Optional[bool] = None,
        profile: Optional[CodecProfile] = None,
        **options,
    ) -> None:
        self.profile = CodecProfile.from_options(
            profile, error_bound=error_bound, relative=relative, **options
        )

    @property
    def config(self) -> CodecProfile:
        """Alias kept for the v1-era attribute name."""
        return self.profile

    # ------------------------------------------------------------- compression

    def absolute_bound(self, data: np.ndarray) -> float:
        """The absolute ``eb`` used for a given field."""
        return self.profile.absolute_bound(data)

    def compress(self, data: np.ndarray) -> bytes:
        """Compress a field into a progressive, block-addressable stream."""
        data = np.asarray(data)
        if data.size == 0:
            raise ConfigurationError("cannot compress an empty array")
        if not np.issubdtype(data.dtype, np.floating):
            raise ConfigurationError("IPComp compresses floating-point fields")
        if not np.isfinite(data).all():
            raise ConfigurationError("IPComp requires finite input values")
        eb = self.absolute_bound(data)
        predictor = shared_predictor(data.shape, self.profile.method)
        quantizer = LinearQuantizer(eb)
        coder = PredictiveCoder(quantizer, self.profile)

        # Progressive blocks are grouped per interpolation *sweep* (one unit
        # per (level, dimension) pass): per sweep the Theorem-1
        # propagation factor p^(l−1) is exact, so the optimizer's guarantees
        # stay tight where most of the data lives (the final sweeps).
        anchor_codes, unit_codes, _ = predictor.decompose(data, quantizer)
        anchor_block = coder.encode_anchor(anchor_codes)
        encodings = coder.encode_levels(unit_codes.items())
        header = StreamHeader(
            shape=tuple(data.shape),
            dtype=str(data.dtype),
            error_bound=eb,
            method=self.profile.method,
            prefix_bits=self.profile.prefix_bits,
            anchor_coder=coder.anchor_coder,
            anchor_count=int(anchor_codes.size),
            anchor_size=len(anchor_block),
            levels=encodings,
        )
        return IPCompStream.serialize(header, anchor_block, encodings)

    # ----------------------------------------------------------- decompression

    def decompress(self, blob: bytes) -> np.ndarray:
        """Full-precision decompression (error ≤ the compression bound)."""
        retriever = self.retriever(blob)
        result = retriever.retrieve(error_bound=retriever.header.error_bound)
        return result.data

    def retriever(self, blob: bytes) -> ProgressiveRetriever:
        """Create a stateful progressive retriever over a compressed stream."""
        return ProgressiveRetriever(blob)

    def retrieve(
        self,
        blob: bytes,
        error_bound: Optional[float] = None,
        bitrate: Optional[float] = None,
        byte_budget: Optional[int] = None,
    ) -> RetrievalResult:
        """One-shot partial retrieval (creates a throwaway retriever)."""
        return self.retriever(blob).retrieve(
            error_bound=error_bound, bitrate=bitrate, byte_budget=byte_budget
        )

    # -------------------------------------------------------------- reporting

    @staticmethod
    def compression_ratio(data: np.ndarray, blob: bytes) -> float:
        """Original bytes / compressed bytes."""
        return data.nbytes / len(blob)

    @staticmethod
    def bitrate(data: np.ndarray, blob: bytes) -> float:
        """Average compressed bits per scalar value."""
        return 8.0 * len(blob) / data.size
