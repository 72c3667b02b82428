"""Byte-budgeted, tiered LRU cache for the retrieval service.

One :class:`TieredCache` holds every reusable artifact of a
:class:`~repro.service.service.RetrievalService` under a single byte
budget:

* tier ``"slab"`` — decoded shard arrays, frozen at insert, at one exact plane
  selection, together with the consumed-range trace and achieved bound of
  the request that produced them.  A slab hit answers a repeated request
  with **zero physical reads** by replaying the recorded trace.
* tier ``"rung"`` — live :class:`~repro.core.progressive.ProgressiveRetriever`
  state (packed plane rows + decoded anchor) for one shard.  A rung hit
  answers a *finer* request by refining in place — Algorithm 2 reads only
  the new plane blocks, never re-fetching from byte zero — and its answer
  becomes a slab: the slab tier is the one home of decoded data.

Entries across tiers share one LRU order and one budget: a decoded slab can
evict a cold rung and vice versa.  The budget is a hard invariant — resident
bytes never exceed it, not even transiently (eviction happens *before*
insertion), and an entry larger than the whole budget is rejected outright.
``max_resident_bytes`` records the high-water mark so tests can assert the
invariant held under concurrent pressure.

All methods are thread-safe; per-tier hit/miss/eviction counters feed the
service's aggregate ``stats()``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.errors import check_count

__all__ = ["CacheStats", "TieredCache"]

#: Default budget of :class:`~repro.service.RetrievalService` (``cache_bytes``).
DEFAULT_CACHE_BYTES = 256 << 20


class CacheStats:
    """Mutable per-tier counters (hits / misses / evictions / inserts).

    Every way an entry can leave the cache has its own counter —
    ``evictions`` (LRU pressure), ``invalidations`` (poisoned / stale
    entries dropped via :meth:`TieredCache.invalidate` or
    :meth:`TieredCache.purge`), ``replacements`` (an existing key re-put,
    or popped by a rejected oversize re-put) — so residency reconciles as
    an invariant::

        entries == Σ inserts − Σ evictions − Σ invalidations − Σ replacements
    """

    def __init__(self) -> None:
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.evictions: Dict[str, int] = {}
        self.inserts: Dict[str, int] = {}
        self.invalidations: Dict[str, int] = {}
        self.replacements: Dict[str, int] = {}
        self.rejected = 0

    def _bump(self, counter: Dict[str, int], tier: str) -> None:
        counter[tier] = counter.get(tier, 0) + 1

    def to_json(self) -> dict:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "evictions": dict(self.evictions),
            "inserts": dict(self.inserts),
            "invalidations": dict(self.invalidations),
            "replacements": dict(self.replacements),
            "rejected": self.rejected,
        }


class TieredCache:
    """Thread-safe LRU over ``(tier, key)`` entries with a shared byte budget."""

    def __init__(self, budget_bytes: int) -> None:
        check_count("cache_bytes", budget_bytes, positive=True)
        self.budget_bytes = int(budget_bytes)
        self._lock = threading.RLock()
        #: (tier, key) -> (value, nbytes); insertion order is LRU order.
        self._entries: "OrderedDict[Tuple[str, Hashable], Tuple[object, int]]" = (
            OrderedDict()
        )
        self.resident_bytes = 0
        #: High-water mark of ``resident_bytes`` — must never pass the budget.
        self.max_resident_bytes = 0
        self.stats = CacheStats()

    def get(self, tier: str, key: Hashable, count: bool = True) -> Optional[object]:
        """The cached value, freshened to most-recently-used; None on miss.

        ``count=False`` skips the hit/miss counters — for lookups whose
        usability the caller still has to judge (a resident rung may be too
        fine for the request); the caller then reports the verdict through
        :meth:`record`.
        """
        with self._lock:
            entry = self._entries.get((tier, key))
            if entry is None:
                if count:
                    self.stats._bump(self.stats.misses, tier)
                return None
            self._entries.move_to_end((tier, key))
            if count:
                self.stats._bump(self.stats.hits, tier)
            return entry[0]

    def peek(self, tier: str, key: Hashable) -> Optional[object]:
        """The cached value or None, read-only like :meth:`scan`."""
        with self._lock:
            entry = self._entries.get((tier, key))
            return None if entry is None else entry[0]

    def record(self, tier: str, hit: bool) -> None:
        """Count a hit/miss judged by the caller (pairs with ``get(count=False)``)."""
        with self._lock:
            self.stats._bump(self.stats.hits if hit else self.stats.misses, tier)

    def put(self, tier: str, key: Hashable, value: object, nbytes: int) -> bool:
        """Insert (or resize/replace) an entry, evicting LRU entries to fit.

        Returns False — and caches nothing — when ``nbytes`` alone exceeds
        the budget: an oversized artifact must never evict the entire
        working set for a single request's benefit.  Re-putting an existing
        key replaces its value and re-charges its size.
        """
        nbytes = max(0, int(nbytes))
        with self._lock:
            old = self._entries.pop((tier, key), None)
            if old is not None:
                self.resident_bytes -= old[1]
                self.stats._bump(self.stats.replacements, tier)
            if nbytes > self.budget_bytes:
                self.stats.rejected += 1
                return False
            while self.resident_bytes + nbytes > self.budget_bytes:
                evicted_key, (_, evicted_bytes) = self._entries.popitem(last=False)
                self.resident_bytes -= evicted_bytes
                self.stats._bump(self.stats.evictions, evicted_key[0])
            self._entries[(tier, key)] = (value, nbytes)
            self.resident_bytes += nbytes
            self.max_resident_bytes = max(self.max_resident_bytes, self.resident_bytes)
            self.stats._bump(self.stats.inserts, tier)
            return True

    def scan(self, tier: str, predicate: Callable[[Hashable], bool]) -> list:
        """Snapshot ``(key, value)`` pairs of one tier matching ``predicate``.

        Read-only: no LRU freshening, no hit/miss counting — the degraded
        serving path uses this to discover *any* resident artifact for a
        shard without disturbing the cache's replacement order.
        """
        with self._lock:
            return [
                (key, value)
                for (entry_tier, key), (value, _nbytes) in self._entries.items()
                if entry_tier == tier and predicate(key)
            ]

    def invalidate(self, tier: str, key: Hashable) -> bool:
        """Drop one entry (poisoned or stale); True if it was resident."""
        with self._lock:
            entry = self._entries.pop((tier, key), None)
            if entry is None:
                return False
            self.resident_bytes -= entry[1]
            self.stats._bump(self.stats.invalidations, tier)
            return True

    def purge(self, predicate: Callable[[str, Hashable], bool]) -> int:
        """Drop every entry whose ``(tier, key)`` satisfies ``predicate``.

        Used when a dataset file changes identity: all entries keyed to the
        dead session are dropped at once instead of aging out of the LRU.
        """
        with self._lock:
            doomed = [tk for tk in self._entries if predicate(*tk)]
            for tier_key in doomed:
                _, nbytes = self._entries.pop(tier_key)
                self.resident_bytes -= nbytes
                self.stats._bump(self.stats.invalidations, tier_key[0])
            return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def to_json(self) -> dict:
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "resident_bytes": self.resident_bytes,
                "max_resident_bytes": self.max_resident_bytes,
                "entries": len(self._entries),
                **self.stats.to_json(),
            }
