"""repro — reproduction of IPComp (HPDC'25) and its evaluation ecosystem.

The package is organised as:

* :mod:`repro.core` — IPComp itself (interpolation predictor, predictive
  bitplane coder, optimized data loader, progressive retriever).
* :mod:`repro.coders` — lossless coding substrate.
* :mod:`repro.baselines` — the compressors IPComp is evaluated against
  (SZ3, SZ3-M, SZ3-R, ZFP, ZFP-R, MGARD/PMGARD, SPERR/SPERR-R).
* :mod:`repro.datasets` — synthetic stand-ins for the six SDRBench fields.
* :mod:`repro.analysis` — error metrics, derived quantities, entropy studies.
* :mod:`repro.parallel` — block-decomposed multi-process compression.
* :mod:`repro.io` — on-disk block container plus the file-backed
  :class:`~repro.io.ChunkedDataset` with ROI-progressive retrieval.
* :mod:`repro.service` — long-lived :class:`~repro.service.RetrievalService`
  serving concurrent ROI requests from pinned sessions and a tiered cache.

Quickstart::

    import numpy as np
    from repro import IPComp
    from repro.datasets import load_dataset

    field = load_dataset("density", shape=(64, 96, 96))
    comp = IPComp(error_bound=1e-6, relative=True)
    blob = comp.compress(field)
    retriever = comp.retriever(blob)
    coarse = retriever.retrieve(error_bound=1e-2)
    fine = retriever.retrieve(error_bound=1e-5)   # incremental refinement
"""

from __future__ import annotations

from repro.core.compressor import IPComp, IPCompConfig
from repro.core.profile import CodecProfile
from repro.core.progressive import ProgressiveRetriever, RetrievalResult
from repro.core.optimizer import LoadingPlan, OptimizedLoader
from repro.io.dataset import ChunkedDataset, DatasetReadResult
from repro.service import RetrievalService, RetrievalTrace

__version__ = "26.1.0"

__all__ = [
    "CodecProfile",
    "IPComp",
    "IPCompConfig",
    "ProgressiveRetriever",
    "RetrievalResult",
    "OptimizedLoader",
    "LoadingPlan",
    "ChunkedDataset",
    "DatasetReadResult",
    "RetrievalService",
    "RetrievalTrace",
    "__version__",
]
