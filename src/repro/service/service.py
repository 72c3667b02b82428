"""Long-lived retrieval service with per-dataset sessions and tiered reuse.

:class:`RetrievalService` is the daemon-style layer the ROADMAP asks for on
top of the one-shot :class:`~repro.retrieval.engine.RetrievalEngine`
pipeline.  Where a fresh :class:`~repro.io.dataset.ChunkedDataset` pays
container-open and per-shard header parse on every request, the service
keeps:

* **sessions** — one per dataset file or URL, pinning one open
  :class:`~repro.io.dataset.ChunkedDataset` (a container or a bare stream
  — the session does not know which), whose engine parses each shard's
  stream header exactly once and pins it with the shard's block extents
  and loader (:class:`~repro.retrieval.engine.PinnedShard`).  The service
  keeps no per-shard metadata of its own: it costs a request with
  :meth:`~repro.io.dataset.ChunkedDataset.plan` and a serve plans its one
  selection through the dataset's engine — one DP per (shard, target) per
  session, which the pinned shard remembers, so a warm hit plans nothing;
  the serve hands the plan's
  :class:`~repro.core.optimizer.LoadingPlan` to the retriever — and opens
  cold shards with
  :meth:`~repro.io.dataset.ChunkedDataset.open_shard`, through the
  dataset's own source tower: a remote one multiplexes — one payload
  burst per cold shard, after a header wave per first plan for a bare
  stream or a legacy-layout archive (the headers block of any other rides
  the opening read) — and a local one reads synchronously.  Each session
  checks its own freshness: a local file by its ``(size, mtime_ns,
  tail_crc)`` fingerprint (:func:`file_fingerprint`), so a rewritten file
  — even one rewritten at the same size within the filesystem's mtime
  granularity — gets a fresh session and the old session's cache entries
  are purged, never served against the new bytes.  One request per key
  opens a missing or stale session; requests racing it wait and share it;
* **a tiered byte-budgeted LRU** (:class:`~repro.service.cache.TieredCache`)
  over decoded **slabs** and resident plane **rungs**, so concurrent ROI
  requests on the same dataset reuse each other's work.  A request whose
  plane selection is already decoded is answered from the slab tier with
  zero physical reads; a coarser resident rung is *refined in place*
  (Algorithm 2 reads only the new plane blocks — never re-fetched from
  byte zero) by the same
  :meth:`~repro.core.progressive.ProgressiveRetriever.retrieve` call a cold
  shard makes on a fresh retriever: every answer of a retriever is rebuilt
  from its resident plane rows, so it is bitwise-identical to a fresh
  serial read.

Accounting stays **consumption-based**: every request's trace reports the
``bytes_loaded`` / ``ranges`` a fresh serial read of the same request
consumes (the stores' ``trace``; cache hits replay the recorded
consumption) while the reads the request's stores actually issued, plus
the once-per-session header parse — charged to exactly one serve, whether
a ``get`` or a :meth:`~RetrievalService.cost` triggered the parse: the one
read of the archive's headers block to the first serve of any shard, or
(legacy layout, bare stream) each shard's two header reads to the first
serve of that shard — are reported separately (``physical_reads`` is 0 on
a warm repeat).  Decoded answers are bitwise-identical to
:meth:`ChunkedDataset.read <repro.io.dataset.ChunkedDataset.read>` across
cold, warm, refined and evicted paths; the test suite pins every one of
those paths to the serial oracle.  Every shard decodes in-process under
the session's pinned reader, as every dataset read does.

Failures degrade along the existing ladder: a faulty source
(:class:`~repro.errors.StreamFormatError`, short read, ``OSError``) costs
the poisoned tier entry its residency and the read is retried from scratch
— the one serve loop continues with a fresh retriever over a fresh source —
up to :data:`RETRIES` times before propagating.  Every slab is frozen at
insert — a read-only view over an immutable ``bytes`` buffer, which no
write through numpy can reach — so a hit serves it as it is, hashing
nothing.  When even the ladder is exhausted — e.g. a
remote backend died mid-refine — the service falls back to the load-shed
path (:meth:`~RetrievalService.get_resident`): an already-resident coarser
fidelity is returned with ``trace.degraded`` set instead of erroring, and
only a request with *nothing* resident propagates the failure.

Sessions also open over ``http(s)://`` URLs: the container (or bare
stream) is read through the resilient remote stack of
:mod:`repro.io.aio` — retries, circuit breakers, optional mirrors and
hedged reads (``remote_options`` passes ``mirrors`` / ``tamper`` to
:func:`~repro.io.aio.open_remote_source`).  Remote sessions are keyed
by a ``(size, 0, tail_crc)`` fingerprint probed over the stack, traces
carry per-request remote deltas (egress bytes, absorbed retries, hedges,
failovers, breaker states), and every answer stays bitwise-identical to
the local serial read of the same file.  Concurrent requests share a
session's stack, but not their deadlines: a request's deadline is
:data:`~repro.io.remote.REQUEST_DEADLINE`, set for the request's own
reads only.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import RetrievalError
from repro.io.aio import open_remote_source
from repro.io.dataset import ChunkedDataset
from repro.io.remote import (
    FINGERPRINT_TAIL_BYTES,
    REQUEST_DEADLINE,
    RETRYABLE_ERRORS,
    before_deadline,
    is_url,
    jittered_backoff,
    remote_fingerprint,
)
from repro.retrieval.engine import assemble
from repro.retrieval.plan import ShardPlan
from repro.service.cache import DEFAULT_CACHE_BYTES, TieredCache
from repro.service.trace import RetrievalTrace, ServiceStats

__all__ = ["RequestCost", "RetrievalService", "ServiceResponse", "file_fingerprint"]

#: Transient-fault retries per shard serve after its first attempt.
RETRIES = 2


def file_fingerprint(path: Path) -> Tuple[int, int, int]:
    """Session identity of a dataset file: ``(size, mtime_ns, tail_crc)``.

    ``(st_size, st_mtime_ns)`` alone serves stale cache when a file is
    rewritten at the same size within the filesystem's mtime granularity;
    the CRC of the footer/manifest tail
    (:data:`~repro.io.remote.FINGERPRINT_TAIL_BYTES`) is the cheap content
    witness that catches it (one bounded read, no payload scan).
    """
    stat = path.stat()
    size = int(stat.st_size)
    with open(path, "rb") as handle:
        if size > FINGERPRINT_TAIL_BYTES:
            handle.seek(size - FINGERPRINT_TAIL_BYTES)
        witness = zlib.crc32(handle.read(FINGERPRINT_TAIL_BYTES))
    return (size, int(stat.st_mtime_ns), witness)


@dataclass
class ServiceResponse:
    """One served request: the decoded region plus its trace."""

    data: np.ndarray
    trace: RetrievalTrace


@dataclass
class RequestCost:
    """Stage-1 cost of a request, computed without touching payload bytes.

    ``predicted_bytes`` is what the planner says a from-scratch read of this
    request consumes (header + anchor + planned plane blocks, summed over
    the selected shards: :attr:`RetrievalPlan.predicted_bytes
    <repro.retrieval.plan.RetrievalPlan.predicted_bytes>`) — the costing
    primitive the scheduler's token buckets debit.  ``shards`` names the
    selection so the scheduler can detect overlapping in-flight requests
    without re-planning.
    """

    dataset: str
    error_bound: float
    shards: List[str]
    predicted_bytes: int


@dataclass
class _SlabEntry:
    """A decoded shard at one exact plane selection, frozen at insert:
    ``data`` is a read-only view over an immutable ``bytes`` buffer, and
    its receipt — the ``(shard, offset, length)`` ranges the serve that
    decoded it consumed, and their byte total — is built once, so a hit
    replays it without touching a block."""

    data: np.ndarray
    ranges: Tuple[Tuple[str, int, int], ...]
    nbytes: int
    bound: float


def _slab_key(sid: int, plan: ShardPlan) -> tuple:
    """The slab tier's key of one shard's plan: its exact plane selection."""
    return (sid, plan.shard, tuple(sorted(plan.target_keep.items())))


@dataclass
class _ShardServe:
    """What serving one shard produced (before request-level assembly)."""

    slab: _SlabEntry
    physical_reads: int = 0
    physical_bytes: int = 0
    retries: int = 0
    tier: str = "slab"  # "slab" | "rung" | "cold"
    retry_delays: List[float] = field(default_factory=list)


class _Session:
    """Per-file pinned state: the open dataset and its shard locks.

    ``key`` is a resolved local path or an ``http(s)://`` URL.  For a URL
    the session builds the remote stack (``remote_options`` are
    :func:`~repro.io.aio.open_remote_source`'s keywords), which its dataset
    owns (closed with it) and whose ``stats()`` the service harvests per
    request.  A container and a bare stream are the same thing here:
    :class:`ChunkedDataset` opens either, with the library's default read
    path (remote → multiplexed, local → synchronous).  Everything known
    per shard — header, block extents, loader — is pinned in the dataset's
    engine, not here.
    """

    def __init__(self, sid: int, key: str, remote_options: dict) -> None:
        self.sid = sid
        self.is_remote = is_url(key)
        self.path: Union[str, Path] = key if self.is_remote else Path(key)
        self.remote_source = (
            open_remote_source(key, **remote_options) if self.is_remote else None
        )
        self.fingerprint = (
            remote_fingerprint(self.remote_source)
            if self.is_remote
            else file_fingerprint(self.path)
        )
        self._locks_lock = threading.Lock()
        self._shard_locks: Dict[str, threading.Lock] = {}
        self.dataset = ChunkedDataset(self.path, source=self.remote_source)

    def is_fresh(self) -> bool:
        """True while the file or object still has the session's fingerprint.

        A remote probe is one bounded ranged GET (size + tail CRC) over the
        session's own stack.  When the probe itself fails, freshness is
        unknowable right now: the session is kept — the request's own reads
        run the full resilience (and degrade) machinery anyway.
        """
        if not self.is_remote:
            return file_fingerprint(self.path) == self.fingerprint
        try:
            probe = remote_fingerprint(self.remote_source, revalidate=True)
        except RETRYABLE_ERRORS:
            return True
        return probe == self.fingerprint

    def remote_stats(self) -> Optional[dict]:
        """Current cumulative stats of the remote stack (None when local)."""
        if not self.is_remote:
            return None
        return self.remote_source.stats()

    def shard_lock(self, name: str) -> threading.Lock:
        with self._locks_lock:
            lock = self._shard_locks.get(name)
            if lock is None:
                lock = self._shard_locks[name] = threading.Lock()
            return lock

    def close(self) -> None:
        self.dataset.close()


class RetrievalService:
    """Serve ROI-progressive requests from pinned sessions and a tiered cache.

    ``cache_bytes`` is the tiered cache's byte budget, a positive integer
    (:data:`~repro.service.cache.DEFAULT_CACHE_BYTES` by default); it
    changes no reported byte or decoded bit, only how much physical I/O a
    warm request can skip.  Every shard decodes in-process, and a read takes
    no codec profile.  Up to :data:`RETRIES` transient-fault retries per
    shard sleep the remote stack's schedule
    (:func:`~repro.io.remote.jittered_backoff`, keyed by shard name), so
    concurrent retriers de-synchronise identically across runs; ``sleep``
    is injectable so tests assert the schedule without waiting it out.
    ``source_filter`` is an adapter hook — ``source_filter(shard_name,
    source) -> source`` — wrapped around every cold read's byte-range
    source; the fault-injection tests use it to make sources flaky.
    """

    def __init__(
        self,
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        sleep: Callable[[float], None] = time.sleep,
        source_filter: Optional[Callable[[str, object], object]] = None,
        remote_options: Optional[dict] = None,
    ) -> None:
        self.cache = TieredCache(cache_bytes)
        self._sleep = sleep
        self.source_filter = source_filter
        #: Keyword arguments for the remote stack builder when a session
        #: opens over an ``http(s)://`` URL (``mirrors``, a fault-injecting
        #: ``tamper`` hook) — forwarded to
        #: :func:`~repro.io.aio.open_remote_source`.
        self.remote_options = dict(remote_options or {})
        self.stats_agg = ServiceStats()
        self._sessions: Dict[str, _Session] = {}
        self._openers: Dict[str, threading.Lock] = {}  # see _opener
        self._probed = threading.local()  # per thread: see _session
        self._lock = threading.Lock()
        self._next_sid = 0
        self._closed = False

    # ------------------------------------------------------------------ serve

    def get(
        self,
        path: Union[str, Path],
        error_bound: Optional[float] = None,
        roi=None,
        *,
        deadline: Optional[float] = None,
    ) -> ServiceResponse:
        """Serve one request; bitwise-identical to a fresh serial ``read``.

        ``deadline`` (monotonic timestamp, e.g. ``time.monotonic() + 0.5``)
        bounds this request's retries: once crossed, neither the service's
        ladder nor a remote endpoint underneath sleeps into another attempt,
        and a remote read that starts after it fails fast — the underlying
        failure propagates (or degrades, see below) instead.  It is this
        request's alone (:data:`~repro.io.remote.REQUEST_DEADLINE`): a
        concurrent request on the same session keeps its own, or none.

        When the ladder is exhausted, the request is answered from resident
        tiers at whatever fidelity is already decoded
        (``trace.degraded=True``) — the same shed path the scheduler uses
        under load — so a remote backend dying mid-refine costs fidelity,
        not availability.
        """
        session = self._session(path)
        remote_before = session.remote_stats()
        token = REQUEST_DEADLINE.set(deadline)
        try:
            try:
                response = self._get_fresh(session, error_bound, roi)
            except RETRYABLE_ERRORS:
                # Exhausted retries degrade to resident fidelity (the
                # scheduler's shed path) instead of erroring; only a request
                # with nothing resident propagates the failure.  The
                # request's session serves it: no second freshness probe
                # right after the backend failed.
                resident = self._get_resident(session, error_bound, roi)
                if resident is None:
                    raise
                resident.trace.degraded = True
                self._annotate_remote(resident.trace, session, remote_before)
                self.stats_agg.record(resident.trace)
                return resident
        finally:
            REQUEST_DEADLINE.reset(token)
        self._annotate_remote(response.trace, session, remote_before)
        self.stats_agg.record(response.trace)
        return response

    def _get_fresh(
        self,
        session: "_Session",
        error_bound: Optional[float],
        roi,
    ) -> ServiceResponse:
        dataset = session.dataset
        roi_slices, selected = dataset.select(roi)
        target = dataset._validated_target(error_bound)
        plan = dataset._engine.plan(selected, target)
        served = [self._serve_shard(session, shard_plan) for shard_plan in plan.shards]
        tier_hits: Dict[str, int] = {}
        tier_misses: Dict[str, int] = {}
        for serve in served:
            counter = tier_misses if serve.tier == "cold" else tier_hits
            tier = "slab" if serve.tier == "cold" else serve.tier
            counter[tier] = counter.get(tier, 0) + 1
        return self._respond(
            session, roi_slices, selected, [serve.slab for serve in served], True,
            error_bound=target,
            planned_bytes=plan.predicted_bytes,
            physical_reads=sum(serve.physical_reads for serve in served),
            physical_bytes=sum(serve.physical_bytes for serve in served),
            tier_hits=tier_hits,
            tier_misses=tier_misses,
            retries=sum(serve.retries for serve in served),
            retry_delays=[d for serve in served for d in serve.retry_delays],
        )

    @staticmethod
    def _respond(
        session: "_Session", roi_slices, selected, slabs: List[_SlabEntry], canonical, **fields
    ) -> ServiceResponse:
        """One answer assembled from its shards' slabs; their ranges if ``canonical``."""
        pieces = [(shard.slices, slab.data) for shard, slab in zip(selected, slabs)]
        ranges: List[Tuple[str, int, int]] = []
        if canonical:
            for slab in slabs:
                ranges.extend(slab.ranges)
        trace = RetrievalTrace(
            dataset=str(session.path),
            roi=[[s.start, s.stop] for s in roi_slices],
            achieved_bound=max((slab.bound for slab in slabs), default=0.0),
            shards=[s.name for s in selected],
            ranges=ranges,
            bytes_loaded=sum(slab.nbytes for slab in slabs) if canonical else 0,
            canonical=canonical,
            **fields,
        )
        return ServiceResponse(assemble(pieces, roi_slices, session.dataset.dtype), trace)

    def _annotate_remote(
        self, trace: RetrievalTrace, session: "_Session", before: Optional[dict]
    ) -> None:
        """Fold the remote stack's per-request stat deltas into a trace.

        Counters are cumulative and monotonic, so per-trace deltas always
        sum to the stack totals — under concurrent requests on one session
        a delta may attribute a neighbour's bytes, but nothing is double-
        counted or lost.  Remote retries absorbed below the service's own
        ladder land in ``trace.retries``: the trace reports request
        flakiness regardless of which layer healed it.
        """
        if before is None or not session.is_remote:
            return
        after = session.remote_stats() or {}

        def delta(key: str) -> int:
            return int(after.get(key, 0)) - int(before.get(key, 0))

        trace.remote = True
        trace.egress_bytes = delta("egress_bytes")
        trace.retries += delta("retries")
        trace.hedges = delta("hedges")
        trace.hedge_wasted_bytes = delta("hedge_wasted_bytes")
        trace.failovers = delta("failovers")
        trace.breaker_states = dict(after.get("breaker", {}))

    def cost(
        self,
        path: Union[str, Path],
        error_bound: Optional[float] = None,
        roi=None,
    ) -> RequestCost:
        """Plan a request's byte cost without serving it (no payload I/O).

        This is :meth:`ChunkedDataset.plan <repro.io.dataset.ChunkedDataset.plan>`
        on the session's dataset: only metadata is touched — each shard's
        header is parsed on first contact (a bounded physical read, paid
        once per session and charged to one serve, see
        :meth:`~repro.retrieval.engine.PinnedShard.claim_parse`) and planned
        from its pinned extents, once per target: the
        :meth:`get` that follows finds the plan made here.  The scheduler prices
        every admission with this before deciding when — and at what
        fidelity — to actually call :meth:`get` (reusing the freshness probe
        of the :meth:`get_resident` just before it on the same thread).
        """
        session = self._session(path, reuse_probe=True)
        plan = session.dataset.plan(error_bound, roi)
        return RequestCost(
            dataset=str(session.path),
            error_bound=session.dataset._validated_target(error_bound),
            shards=[shard_plan.shard for shard_plan in plan.shards],
            predicted_bytes=plan.predicted_bytes,
        )

    def get_resident(
        self,
        path: Union[str, Path],
        error_bound: Optional[float] = None,
        roi=None,
    ) -> Optional[ServiceResponse]:
        """Serve the request from resident tiers only — zero physical reads.

        Per selected shard a slab at exactly the planned plane selection
        wins (the canonical bytes of a from-scratch serve), else the finest
        resident one; ``trace.canonical`` records which case served.  A
        rung holds packed rows, not an answer, so it is never a candidate.
        Returns ``None`` when any shard has nothing resident — degradation
        is all-or-nothing, a partially-fresh answer would splice fidelities
        within one array.  It plans only pinned shards (a shard that never
        served has no slab), so it reads nothing.

        A canonical answer *is* a slab hit: the same bytes and trace as the
        all-slab hit of :meth:`get` (the serial read's ranges, ``tier_hits
        == {"slab": n}``), each slab freshened in the LRU and counted as a
        hit, and the trace recorded in the service aggregate — so the
        scheduler settles such a request here, never calling :meth:`get`.
        It looks each planned slab up by key: O(selected shards).  A
        degraded answer (coarser or finer slabs) is a read-only look — one
        scan of the slab tier, nothing freshened, counted or recorded, no
        ranges reported (``bytes_loaded=0``).  Slabs are frozen at insert:
        no shard lock is taken, no cold read waited on.
        """
        session = self._probed.session = self._session(path)
        remote_before = session.remote_stats()
        response = self._get_resident(session, error_bound, roi, hit=True)
        if response is not None and response.trace.canonical:
            self._annotate_remote(response.trace, session, remote_before)
            self.stats_agg.record(response.trace)
        return response

    def _get_resident(
        self, session: _Session, error_bound: Optional[float], roi, *, hit: bool = False
    ) -> Optional[ServiceResponse]:
        """The resident answer; ``hit`` freshens and counts a canonical
        one's slabs (the public path — ``get``'s fallback counted its
        shards already)."""
        dataset = session.dataset
        roi_slices, selected = dataset.select(roi)
        target = dataset._validated_target(error_bound)
        # Only a served shard has a slab, and serving pinned it: an unpinned
        # shard has nothing resident, and pinned ones plan reading nothing.
        if not all(shard.name in dataset._engine._pinned for shard in selected):
            return None
        plan = dataset._engine.plan(selected, target)
        keys = [_slab_key(session.sid, shard_plan) for shard_plan in plan.shards]
        slabs = [self.cache.peek("slab", key) for key in keys]
        canonical = all(slab is not None for slab in slabs)
        found = len(keys)
        if canonical and hit:  # a slab evicted since its peek counts as a miss
            found = sum(self.cache.get("slab", key) is not None for key in keys)
        elif not canonical:
            # A shard without its planned selection answers at its finest
            # slab: the one scan of the slab tier, on the degraded path only.
            sid, names = session.sid, {key[1] for key, slab in zip(keys, slabs) if slab is None}
            finest: Dict[str, _SlabEntry] = {}
            for key, entry in self.cache.scan("slab", lambda k: k[0] == sid and k[1] in names):
                if key[1] not in finest or entry.bound < finest[key[1]].bound:
                    finest[key[1]] = entry
            if len(finest) < len(names):
                return None
            slabs = [slab or finest[key[1]] for key, slab in zip(keys, slabs)]
        return self._respond(
            session, roi_slices, selected, slabs, canonical,
            error_bound=target,
            planned_bytes=plan.predicted_bytes if canonical else 0,
            physical_reads=0,
            physical_bytes=0,
            tier_hits={"slab": found} if canonical and found else {},
            tier_misses={"slab": len(keys) - found} if found < len(keys) else {},
        )

    def stats(self) -> dict:
        """Aggregate request statistics plus the cache's live counters."""
        return {
            **self.stats_agg.to_json(),
            "cache": self.cache.to_json(),
            "sessions": len(self._sessions),
        }

    # ------------------------------------------------------------- per shard

    def _serve_shard(self, session: _Session, plan: ShardPlan) -> _ShardServe:
        name, keep = plan.shard, plan.target_keep
        slab_key = _slab_key(session.sid, plan)
        rung_key = (session.sid, name)
        with session.shard_lock(name):
            slab = self.cache.get("slab", slab_key)
            if slab is not None:
                # Only a serve of this shard in this session inserts a slab,
                # and that serve has claimed the header parse already.
                return _ShardServe(slab)
            # The resident rung serves only when its keep is component-wise
            # ≤ the plan's: the load then lands exactly on the plan's
            # selection, so the answer is bitwise what a fresh read at
            # ``target`` produces and the rung's accumulated trace is the
            # multiset of ranges that fresh read consumes.
            rung = self.cache.get("rung", rung_key, count=False)
            if rung is not None and any(
                rung.current_keep.get(level, 0) > k for level, k in keep.items()
            ):
                rung = None
            self.cache.record("rung", hit=rung is not None)
            retries = 0
            delays: List[float] = []
            while True:
                try:
                    # Without a rung: a fresh retriever over a fresh source
                    # tower per attempt (``source_filter`` beneath its prime
                    # cache).  Its store is handed the pinned header; the
                    # header's two ranges open the consumed trace all the
                    # same, so the report matches a serial fresh read (which
                    # parses the header itself) while the dataset parses it
                    # only once physically.
                    retriever = rung if rung is not None else session.dataset.open_shard(
                        name, self.source_filter
                    )
                    # The serve primes its plan once — over a remote source
                    # the shard's ops are one payload burst, not a round trip
                    # per op (a local one has nothing to prime) — and the
                    # retrieve that follows reads them.
                    retriever._prime(plan.loading_plan)
                    result = retriever.retrieve(plan=plan.loading_plan)
                    break
                except RETRYABLE_ERRORS:
                    if rung is not None:
                        # The rung's source went bad mid-refine: drop it and
                        # continue from scratch, over a fresh source.
                        self.cache.invalidate("rung", rung_key)
                        rung = None
                    retries += 1
                    delay = jittered_backoff(name, retries)
                    # Back off (capped exponential, deterministic jitter)
                    # instead of hot-spinning against a transient fault.  An
                    # expired (or about-to-expire) request deadline ends the
                    # ladder early: propagate the real failure rather than
                    # sleeping past the time the caller stops caring.
                    if retries > RETRIES or not before_deadline(delay):
                        raise
                    delays.append(delay)
                    self._sleep(delay)
            # (Re-)charge the rung at its resident size — its rows and
            # anchor; the answer it built lives in the slab tier alone.  If
            # the budget no longer accommodates it, it simply ages out.
            self.cache.put("rung", rung_key, retriever, retriever.resident_nbytes)
            # The header parse is charged to the first serve that completes,
            # whichever request — a get or a cost() — triggered the parse:
            # the shard's own two header reads, or, for a shard pinned from
            # the archive's headers block, the one read of that block, to
            # the first serve of any of its shards.
            parse_reads, parse_bytes = session.dataset.pinned_shard(name).claim_parse()
            store = retriever.store
            # Frozen: a view over immutable ``bytes`` that numpy neither
            # writes through nor makes writeable again, unlike a flag on
            # owned memory.  The receipt is built here, once per slab.
            data = result.data
            ranges = tuple((name, int(o), int(n)) for o, n in store.trace)
            slab = _SlabEntry(
                data=np.frombuffer(data.tobytes(), data.dtype).reshape(data.shape),
                ranges=ranges,
                nbytes=sum(n for _, _, n in ranges),
                bound=result.error_bound,
            )
            self.cache.put("slab", slab_key, slab, data.nbytes)
            return _ShardServe(
                slab,
                # The store's counters restart with each retrieval: what they
                # hold now is this serve's payload reads and bytes.
                physical_reads=parse_reads + store.n_reads,
                physical_bytes=parse_bytes + store.bytes_read,
                retries=retries,
                tier="rung" if rung is not None else "cold",
                retry_delays=delays,
            )

    # -------------------------------------------------------------- sessions

    def _session(self, path: Union[str, Path], *, reuse_probe: bool = False) -> _Session:
        """The live session of a file or URL, keyed by the URL or the
        resolved path.

        A session whose file or object no longer has its fingerprint
        (:meth:`_Session.is_fresh`) is closed, and every cache entry keyed
        to it purged, before a fresh one opens — the new bytes are never
        answered from the old cache.  One request per key opens the new
        session (:meth:`_opener`); requests racing it wait, then share it.
        A remote session that is opened anew
        costs one request: its first fingerprint, the container sniff,
        footer and manifest all come out of the stack's opening read.
        ``reuse_probe`` skips the probe when the thread's previous session
        lookup, a :meth:`get_resident`, probed this session; any lookup
        ends that reuse.
        """
        key = str(path) if is_url(path) else str(Path(path).resolve())
        probed = self._probed.__dict__.pop("session", None)
        with self._lock:
            session = self._sessions.get(key)
        if reuse_probe and session is not None and session is probed:
            return session
        # The probe runs outside the service lock: for a URL it is a ranged
        # GET, and no other request may wait on it.
        if session is not None and session.is_fresh():
            return session
        # Missing or stale: the key's one opener replaces it.  A request
        # that queued behind the opener takes the session it registered.
        with self._opener(key):
            with self._lock:
                current = self._sessions.get(key)
                if current is not None and current is not session:
                    return current
                if current is not None:
                    del self._sessions[key]
                    self.cache.purge(lambda tier, k: k[0] == current.sid)
                    current.close()
            return self._open_session(key)

    def _opener(self, key: str) -> threading.Lock:
        """The lock a missing or stale session of ``key`` is (re)opened
        under: one opener per key, and no key waits on another's open."""
        with self._lock:
            return self._openers.setdefault(key, threading.Lock())

    def _open_session(self, key: str) -> _Session:
        """Open a session outside the service lock (a URL's opening read is
        a GET) and register it; the caller holds the key's opener."""
        with self._lock:
            if self._closed:
                raise RetrievalError("service is closed")
            sid, self._next_sid = self._next_sid, self._next_sid + 1
        session = _Session(sid, key, self.remote_options)
        with self._lock:
            if not self._closed:
                self._sessions[key] = session
                return session
        session.close()
        raise RetrievalError("service is closed")

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for session in self._sessions.values():
                session.close()
            self._sessions.clear()

    def __enter__(self) -> "RetrievalService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
