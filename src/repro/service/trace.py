"""Per-request traces and service-level aggregate statistics.

A :class:`RetrievalTrace` is the serving layer's receipt for one request.
It separates the two kinds of byte accounting the repo keeps everywhere:

* **consumed** — ``bytes_loaded`` / ``ranges``: the ranges the request's
  decoding logically used, identical to what a fresh serial
  :meth:`~repro.io.dataset.ChunkedDataset.read` of the same request
  reports.  Cache hits *replay* these numbers; they never shrink.
* **physical** — ``physical_reads`` / ``physical_bytes``: what actually
  hit the file while serving this request.  A warm slab hit reports the
  full consumed trace with ``physical_reads == 0``.

``planned_bytes`` is the stage-1 estimate (header + anchor + planned plane
blocks) computed without touching payload; ``plan_delta`` is how far the
actual consumption landed from it (0 for a from-scratch plan-shaped read).

The scheduler (:mod:`repro.service.scheduler`) annotates three more
fields: ``client`` (the tenant the request was admitted under),
``queue_wait`` (seconds between enqueue and grant), ``degraded`` (the
response was served from a coarser resident slab under load, with the
requested fidelity refined in the background) and ``budget_debited``
(predicted bytes charged against the client's token bucket).  The retry
ladder records its per-attempt backoff in ``retry_delays``.

Remote datasets add a fourth group, harvested as per-request deltas from
the resilient source stack (:mod:`repro.io.aio`): ``remote`` (the
request was served over HTTP), ``egress_bytes`` (body bytes received off
the network, over-fetch and failed attempts included), ``hedges`` /
``hedge_wasted_bytes`` (duplicate tail-latency reads fired at a second
mirror, and the loser payloads' cost), ``failovers`` (reads moved to a
replica after the preferred mirror failed) and ``breaker_states`` (each
endpoint's circuit-breaker state when the request finished).  Remote
retries absorbed *below* the service's own ladder are folded into
``retries`` — the trace answers "how flaky was this request" regardless
of which layer healed it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["RetrievalTrace", "ServiceStats"]


@dataclass
class RetrievalTrace:
    """Receipt for one service request: cost, cache behaviour, plan delta."""

    dataset: str
    roi: List[List[int]]
    error_bound: float
    achieved_bound: float
    shards: List[str]
    ranges: List[Tuple[str, int, int]]
    bytes_loaded: int
    planned_bytes: int
    physical_reads: int
    physical_bytes: int
    tier_hits: Dict[str, int] = field(default_factory=dict)
    tier_misses: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    #: Backoff slept before each retry attempt, in order (empty: no retries).
    retry_delays: List[float] = field(default_factory=list)
    #: Scheduler annotations (defaults describe a direct, unscheduled get).
    client: str = ""
    queue_wait: float = 0.0
    degraded: bool = False
    budget_debited: int = 0
    #: The served bytes are the exact reconstruction a from-scratch serve
    #: of this request produces.  Always true for ``get``; ``get_resident``
    #: clears it when any shard was answered at a finer-than-planned
    #: residency (bound-satisfying, but different bytes).
    canonical: bool = True
    #: Remote-source annotations (all zero/empty for local datasets).
    remote: bool = False
    egress_bytes: int = 0
    hedges: int = 0
    hedge_wasted_bytes: int = 0
    failovers: int = 0
    breaker_states: Dict[str, str] = field(default_factory=dict)

    @property
    def plan_delta(self) -> int:
        """Consumed minus planned bytes (plan-vs-actual)."""
        return self.bytes_loaded - self.planned_bytes

    def to_json(self) -> dict:
        return {
            "dataset": self.dataset,
            "roi": [list(r) for r in self.roi],
            "error_bound": self.error_bound,
            "achieved_bound": self.achieved_bound,
            "shards": list(self.shards),
            "ranges": [[name, offset, length] for name, offset, length in self.ranges],
            "bytes_loaded": self.bytes_loaded,
            "planned_bytes": self.planned_bytes,
            "plan_delta": self.plan_delta,
            "physical_reads": self.physical_reads,
            "physical_bytes": self.physical_bytes,
            "tier_hits": dict(self.tier_hits),
            "tier_misses": dict(self.tier_misses),
            "retries": self.retries,
            "retry_delays": list(self.retry_delays),
            "client": self.client,
            "queue_wait": self.queue_wait,
            "degraded": self.degraded,
            "budget_debited": self.budget_debited,
            "canonical": self.canonical,
            "remote": self.remote,
            "egress_bytes": self.egress_bytes,
            "hedges": self.hedges,
            "hedge_wasted_bytes": self.hedge_wasted_bytes,
            "failovers": self.failovers,
            "breaker_states": dict(self.breaker_states),
        }


class ServiceStats:
    """Thread-safe running aggregate over every trace a service produced."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.bytes_loaded = 0
        self.planned_bytes = 0
        self.physical_reads = 0
        self.physical_bytes = 0
        self.retries = 0
        self.degraded = 0
        self.remote_requests = 0
        self.egress_bytes = 0
        self.hedges = 0
        self.hedge_wasted_bytes = 0
        self.failovers = 0
        self.tier_hits: Dict[str, int] = {}
        self.tier_misses: Dict[str, int] = {}

    def record(self, trace: RetrievalTrace) -> None:
        with self._lock:
            self.requests += 1
            self.bytes_loaded += trace.bytes_loaded
            self.planned_bytes += trace.planned_bytes
            self.physical_reads += trace.physical_reads
            self.physical_bytes += trace.physical_bytes
            self.retries += trace.retries
            self.degraded += int(trace.degraded)
            self.remote_requests += int(trace.remote)
            self.egress_bytes += trace.egress_bytes
            self.hedges += trace.hedges
            self.hedge_wasted_bytes += trace.hedge_wasted_bytes
            self.failovers += trace.failovers
            for tier, count in trace.tier_hits.items():
                self.tier_hits[tier] = self.tier_hits.get(tier, 0) + count
            for tier, count in trace.tier_misses.items():
                self.tier_misses[tier] = self.tier_misses.get(tier, 0) + count

    def to_json(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "bytes_loaded": self.bytes_loaded,
                "planned_bytes": self.planned_bytes,
                "physical_reads": self.physical_reads,
                "physical_bytes": self.physical_bytes,
                "retries": self.retries,
                "degraded": self.degraded,
                "remote_requests": self.remote_requests,
                "egress_bytes": self.egress_bytes,
                "hedges": self.hedges,
                "hedge_wasted_bytes": self.hedge_wasted_bytes,
                "failovers": self.failovers,
                "tier_hits": dict(self.tier_hits),
                "tier_misses": dict(self.tier_misses),
            }
