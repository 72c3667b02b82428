"""IPComp core: the paper's primary contribution.

The subpackage is organised exactly along the pipeline of Figure 2:

``interpolation`` (decorrelation) → ``quantizer`` (error-bounded quantization)
→ ``negabinary`` + ``kernels`` (the one bitplane chain) + ``predictive_coder``
(progressive encoding into independent blocks) → ``stream`` (addressable container) →
``optimizer`` (minimum-volume data loading) → ``progressive`` (Algorithm 1/2
retrieval) → ``compressor`` (the public façade :class:`repro.core.compressor.IPComp`).

``theory`` holds the analytical error-propagation results (Theorem 1 and the
transform-vs-prediction comparison of §4.2) that the optimizer relies on.
"""

from __future__ import annotations

from repro.core.compressor import IPComp, IPCompConfig
from repro.core.interpolation import InterpolationPredictor
from repro.core.optimizer import LoadingPlan, OptimizedLoader
from repro.core.profile import CodecProfile
from repro.core.progressive import ProgressiveRetriever
from repro.core.quantizer import LinearQuantizer
from repro.core.stream import CompressedStore, IPCompStream

__all__ = [
    "CodecProfile",
    "IPComp",
    "IPCompConfig",
    "InterpolationPredictor",
    "LinearQuantizer",
    "OptimizedLoader",
    "LoadingPlan",
    "ProgressiveRetriever",
    "IPCompStream",
    "CompressedStore",
]
