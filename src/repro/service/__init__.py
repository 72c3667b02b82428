"""Long-lived retrieval serving layer with tiered caching.

Public surface:

* :class:`~repro.service.service.RetrievalService` — per-dataset sessions
  and a byte-budgeted slab/rung LRU over the
  :class:`~repro.retrieval.engine.RetrievalEngine` primitives (every shard
  decodes in-process);
* :class:`~repro.service.trace.RetrievalTrace` — one request's receipt
  (consumed vs physical bytes, per-tier cache behaviour, plan delta);
* :class:`~repro.service.cache.TieredCache` — the shared LRU itself;
* :class:`~repro.service.scheduler.RequestScheduler` — multi-tenant QoS
  in front of the service: admission window, per-client byte-budget token
  buckets (tenants take turns in rotation), overlapping-ROI batching, and
  load-shedding by fidelity degradation with background refinement.
"""

from repro.service.cache import DEFAULT_CACHE_BYTES, TieredCache
from repro.service.scheduler import RequestScheduler, ScheduledResponse
from repro.service.service import (
    RequestCost,
    RetrievalService,
    ServiceResponse,
    file_fingerprint,
)
from repro.service.trace import RetrievalTrace, ServiceStats

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "RequestCost",
    "RequestScheduler",
    "RetrievalService",
    "RetrievalTrace",
    "ScheduledResponse",
    "ServiceResponse",
    "ServiceStats",
    "TieredCache",
    "file_fingerprint",
]
