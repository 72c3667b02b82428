"""Byte-budget QoS scheduler in front of :class:`RetrievalService`.

The paper's core promise is that fidelity trades against latency *per
request, mid-flight* — a progressive stream can answer coarse now and
refine later, which no fixed-rate codec can.  :class:`RequestScheduler`
turns that property into a multi-tenant serving policy, after one rule:

* **settle first** — ``submit`` asks
  :meth:`~repro.service.service.RetrievalService.get_resident` first.  A
  canonical answer (every selected shard's slab at exactly the planned
  selection) settles the request on the caller's thread, a counted slab
  hit never queued, granted or debited: budgets meter fetches;
* **admission control** — at most ``max_inflight`` requests physically
  fetch/decode at once; everything else queues (or degrades, below)
  instead of convoying on the per-shard locks;
* **byte-budget token buckets** — the one per-tenant byte rule: each
  client refills at its configured bytes/second and a request is granted
  only when the bucket holds its full
  :attr:`~repro.service.service.RequestCost.predicted_bytes` (the
  planner's stage-1 cost, computed without payload I/O).  Buckets are
  never overdrawn; a request costlier than one second of budget is still
  servable because the bucket's burst capacity stretches to the head
  request's cost — it just waits proportionally longer.  Clients with a
  queued head take turns in rotation, one grant per turn;
* **overlapping-ROI batching** — a granted request whose plan shares a
  shard (same dataset, same fidelity target) with one already in flight
  becomes a *follower*: it waits for that leader to finish and then reads
  through the slab/rung tiers the leader just populated, one physical
  fetch/decode serving both;
* **load-shedding by degradation** — when a request cannot be granted
  immediately (window full or bucket short), the non-canonical answer of
  its settle-first look, if every selected shard has *some* resident
  fidelity, is returned right away with ``degraded=True`` in its trace,
  and the queued request lives on as a background refine whose final
  answer — bitwise-identical to a fresh serial read at the requested
  bound — lands in :meth:`ScheduledResponse.refined`.  Shedding is retried
  whenever a scheduled serve completes, the one event that adds residency.

Traces gain ``client``, ``queue_wait`` (enqueue→grant seconds),
``degraded`` and ``budget_debited``; :meth:`RequestScheduler.stats`
aggregates per-client delivered bytes, wait times and the bucket
low-water marks the overdraw tests pin.

Settles and grants happen on submit and on completion.  A pacer thread
refills the buckets and re-runs the grant loop only in a scheduler with
some non-zero rate; an unmetered one has nothing to refill and starts
none.  ``clock`` is injectable and ``pacer=False`` disables the thread, so
tests drive time explicitly (:meth:`RequestScheduler.kick` re-runs the
grant loop after a fake-clock advance).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.errors import RetrievalError, check_count
from repro.io.remote import is_url
from repro.service.service import RequestCost, RetrievalService, ServiceResponse

__all__ = ["RequestScheduler", "ScheduledResponse"]

#: Default bound on concurrently fetching/decoding requests.
DEFAULT_MAX_INFLIGHT = 4

#: How long a follower waits for its leader before proceeding alone.
_FOLLOWER_WAIT_S = 60.0

#: Pacer period — how often budgets refill and the grant loop re-runs
#: without an explicit submit/completion/kick event.
_PACER_PERIOD_S = 0.05


class ScheduledResponse:
    """Handle for one scheduled request: immediate answer, then the refine.

    :meth:`result` blocks for the *first* answer — the degraded resident
    serve when the scheduler load-shed, otherwise the final one.
    :meth:`refined` blocks for the final answer at the requested bound
    (identical object to :meth:`result` when nothing degraded).  A failed
    request raises the underlying error from both.
    """

    def __init__(self, client: str, cost: RequestCost) -> None:
        self.client = client
        self.cost = cost
        self._first = threading.Event()
        self._final = threading.Event()
        self._first_resp: Optional[ServiceResponse] = None
        self._final_resp: Optional[ServiceResponse] = None
        self._exc: Optional[BaseException] = None

    @property
    def degraded(self) -> bool:
        """True once a degraded (resident, coarser) answer was served first."""
        first = self._first_resp
        return first is not None and first.trace.degraded

    def result(self, timeout: Optional[float] = None) -> ServiceResponse:
        """The first available answer (possibly degraded); blocks until one."""
        if not self._first.wait(timeout):
            raise TimeoutError("no response within timeout")
        if self._first_resp is None:
            assert self._exc is not None
            raise self._exc
        return self._first_resp

    def refined(self, timeout: Optional[float] = None) -> ServiceResponse:
        """The final answer at the requested bound; blocks until served."""
        if not self._final.wait(timeout):
            raise TimeoutError("request not refined within timeout")
        if self._final_resp is None:
            assert self._exc is not None
            raise self._exc
        return self._final_resp

    # ------------------------------------------------- scheduler-side plumbing

    def _serve_first(self, response: ServiceResponse) -> None:
        if not self._first.is_set():
            self._first_resp = response
            self._first.set()

    def _serve_final(self, response: ServiceResponse) -> None:
        self._final_resp = response
        self._final.set()
        self._serve_first(response)

    def _fail(self, exc: BaseException) -> None:
        self._exc = exc
        self._final.set()
        self._first.set()


@dataclass
class _Pending:
    """One queued request plus its scheduling state."""

    client: str
    path: Union[str, Path]  # a local path, or an http(s):// URL verbatim
    error_bound: Optional[float]
    roi: object
    cost: RequestCost
    response: ScheduledResponse
    enqueued_at: float
    deadline: Optional[float] = None
    granted: bool = False
    shedding: bool = False  # a shed look is out: the grant loop passes it by
    degraded_served: bool = False
    queue_wait: float = 0.0
    leader_done: Optional[threading.Event] = None


@dataclass
class _Inflight:
    """Registry entry of one physically-executing (leader) request."""

    dataset: str
    target: float
    shards: Set[str]
    done: threading.Event = field(default_factory=threading.Event)


class _Client:
    """Per-tenant queue and byte-budget token bucket."""

    def __init__(self, name: str, budget_bps: int, now: float) -> None:
        self.name = name
        self.budget_bps = int(budget_bps)
        self.queue: List[_Pending] = []
        # A full bucket at birth: a fresh client's first request should not
        # wait out a cold refill.
        self.tokens = float(self.budget_bps)
        self.refilled_at = now
        self.min_tokens = float(self.budget_bps)
        self.delivered_bytes = 0
        self.debited_bytes = 0
        self.granted = 0
        self.degraded = 0

    def refill(self, now: float) -> None:
        if self.budget_bps <= 0:
            return
        elapsed = max(0.0, now - self.refilled_at)
        self.refilled_at = now
        head_cost = self.queue[0].cost.predicted_bytes if self.queue else 0
        cap = float(max(self.budget_bps, head_cost))
        self.tokens = min(cap, self.tokens + elapsed * self.budget_bps)

    def affords(self, cost_bytes: int) -> bool:
        return self.budget_bps <= 0 or self.tokens >= cost_bytes

    def debit(self, cost_bytes: int) -> None:
        if self.budget_bps > 0:
            self.tokens -= cost_bytes
            self.min_tokens = min(self.min_tokens, self.tokens)
        self.debited_bytes += cost_bytes


class RequestScheduler:
    """Admission, fair-share and degradation policy over one service.

    ``max_inflight`` is a positive integer.  ``client_budgets`` maps client
    name to bytes/second; ``budget_bps`` is the default for clients not
    listed (0 = unmetered).  A rate is a non-negative integer: a bad knob
    is a :class:`~repro.errors.ConfigurationError`, never a clamp.
    ``clock`` must be monotonic; tests inject a fake one and call
    :meth:`kick` after advancing it.  The real-time refill thread runs only
    when some rate is non-zero; ``pacer=False`` disables it entirely.
    """

    def __init__(
        self,
        service: RetrievalService,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        budget_bps: int = 0,
        client_budgets: Optional[Dict[str, int]] = None,
        clock: Callable[[], float] = time.monotonic,
        pacer: bool = True,
    ) -> None:
        check_count("max_inflight", max_inflight, positive=True)
        check_count("budget_bps", budget_bps)
        for name, bps in (client_budgets or {}).items():
            check_count(f"budget of client {name!r}", bps)
        self.service = service
        self.max_inflight = int(max_inflight)
        self.default_budget_bps = int(budget_bps)
        self.client_budgets = dict(client_budgets or {})
        self.clock = clock
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._clients: Dict[str, _Client] = {}
        self._rotation: List[str] = []
        self._rr = 0
        self._inflight: Dict[int, _Inflight] = {}
        self._inflight_count = 0
        self._follower_count = 0
        self._follower_slots = max(4, self.max_inflight)
        self._next_token = 0
        self._closed = False
        self._submitted = 0
        self._degraded_served = 0
        self._followers_total = 0
        # Queue waits as a running count, sum and max: constant size however
        # long the scheduler lives.
        self._waits = 0
        self._wait_sum = 0.0
        self._wait_max = 0.0
        # Leaders + followers can all block in workers at once.
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight + self._follower_slots,
            thread_name_prefix="repro-sched",
        )
        self._pacer: Optional[threading.Thread] = None
        metered = self.default_budget_bps > 0 or any(self.client_budgets.values())
        if pacer and metered:
            self._pacer = threading.Thread(
                target=self._pace, name="repro-sched-pacer", daemon=True
            )
            self._pacer.start()

    # ----------------------------------------------------------------- submit

    def submit(
        self,
        path: Union[str, Path],
        error_bound: Optional[float] = None,
        roi=None,
        *,
        client: str = "default",
        timeout: Optional[float] = None,
    ) -> ScheduledResponse:
        """Enqueue one request; returns immediately with its handle.

        A resident answer already *at* the requested bound — canonical,
        the bytes a fresh serial read returns — settles the request before
        ``submit`` returns, on the caller's thread: nothing costed, queued,
        granted or debited, whether or not the window has room.  Otherwise
        the request is costed (metadata-only planning), queued under its
        client, and the grant loop runs.  If it cannot start now and a
        degraded resident answer exists, that answer is served on the
        handle at once and the queued request becomes its background
        refine.

        ``path`` may be an ``http(s)://`` URL (served through the
        service's resilient remote stack).  ``timeout`` seconds, when
        given, become the request's whole-lifetime deadline: once crossed,
        retry ladders — the service's and any remote stack's — stop
        sleeping into further attempts, and an exhausted request degrades
        to resident fidelity (or fails) instead of hanging.
        """
        with self._lock:
            if self._closed:  # before the service counts a settle
                raise RetrievalError("scheduler is closed")
        resident = self.service.get_resident(path, error_bound, roi)
        if resident is not None and resident.trace.canonical:
            return self._settle(client, resident)
        cost = self.service.cost(path, error_bound, roi)
        response = ScheduledResponse(client, cost)
        pending = _Pending(
            client=client,
            # Path() would mangle "http://h/x" (collapsed slashes): URLs
            # pass through verbatim.
            path=str(path) if is_url(path) else Path(path),
            error_bound=error_bound,
            roi=roi,
            cost=cost,
            response=response,
            enqueued_at=self.clock(),
            deadline=(
                None if timeout is None else time.monotonic() + float(timeout)
            ),
        )
        with self._lock:
            # Checked under the lock: a close() that ran while this request
            # was being costed has already swept the queues.
            if self._closed:
                raise RetrievalError("scheduler is closed")
            self._submitted += 1
            self._client(client).queue.append(pending)
            self._pump_locked()
        if not pending.granted:
            self._try_degrade(pending, resident)
        return pending.response

    def _settle(self, client: str, resident: ServiceResponse) -> ScheduledResponse:
        """Settle with the canonical resident answer: never queued, granted or debited."""
        trace = resident.trace
        trace.client = client
        cost = RequestCost(trace.dataset, trace.error_bound, trace.shards, trace.planned_bytes)
        response = ScheduledResponse(client, cost)
        with self._lock:
            self._submitted += 1
            self._client(client)  # a settled tenant still shows in stats()
        response._serve_final(resident)
        return response

    def request(
        self,
        path: Union[str, Path],
        error_bound: Optional[float] = None,
        roi=None,
        *,
        client: str = "default",
        timeout: Optional[float] = None,
    ) -> ServiceResponse:
        """Blocking convenience: submit and wait for the *final* answer.

        ``timeout`` doubles as the request's lifetime deadline (retry
        ladders stop at it) and as the wait bound on the final answer.
        """
        return self.submit(
            path, error_bound, roi, client=client, timeout=timeout
        ).refined(timeout)

    def kick(self) -> None:
        """Refill budgets against the (possibly fake) clock and re-grant."""
        with self._lock:
            self._pump_locked()

    # ------------------------------------------------------------ degradation

    def _try_degrade(self, pending: _Pending, resident: Optional[ServiceResponse]) -> None:
        """Serve a resident coarse answer now; keep the refine queued.

        Runs outside the scheduler lock, like the ``get_resident`` call
        that made ``resident``.  Whatever happens the queued request
        stands, unless the resident answer is canonical, in which case the
        request settles free of charge.
        """
        if resident is None:
            return
        trace = resident.trace
        trace.client = pending.client
        # "Satisfied" means *canonical*, not merely inside the bound: every
        # shard's resident answer must be the exact reconstruction a
        # from-scratch serve of this request produces (the planned keep,
        # bit-for-bit).  A finer resident fidelity still meets the bound
        # but is different bytes — serve it as a degraded first answer
        # and refine to the canonical bytes in the background.
        satisfied = trace.canonical
        with self._lock:
            if pending.granted or pending.response._first.is_set():
                return
            if satisfied:
                # Full fidelity straight from residency: nothing left to
                # refine, so the queued request is withdrawn undebited.
                client = self._clients.get(pending.client)
                if client is not None and pending in client.queue:
                    client.queue.remove(pending)
                    self._cond.notify_all()  # drain() may be waiting on it
            else:
                trace.degraded = True
                pending.degraded_served = True
                self._degraded_served += 1
                self._client(pending.client).degraded += 1
        if satisfied:
            pending.response._serve_final(resident)
        else:
            pending.response._serve_first(resident)

    def _shed_queued(self) -> None:
        """Retry load-shedding for requests still waiting in queue.

        Runs when a scheduled serve completes — the one event that adds
        residency for scheduled traffic (a finished serve leaves slabs and
        rungs behind) — so a request that found nothing resident at submit
        time may be shed-servable now.  Candidates are chosen under the
        lock; each look runs outside it, its request marked ``shedding`` so
        no grant races it: a canonical answer counts once, as the settle.
        """
        with self._lock:
            waiting = [
                pending
                for name in self._rotation
                for pending in self._clients[name].queue
                if not pending.granted
                and not pending.degraded_served
                and not pending.response._first.is_set()
            ]
        for pending in waiting:
            with self._lock:
                if pending.granted:  # granted since the snapshot: no look
                    continue
                pending.shedding = True
            try:
                look = self.service.get_resident(pending.path, pending.error_bound, pending.roi)
                self._try_degrade(pending, look)
            finally:
                with self._lock:
                    pending.shedding = False
                    self._pump_locked()

    # ------------------------------------------------------------- grant loop

    def _client(self, name: str) -> _Client:
        client = self._clients.get(name)
        if client is None:
            budget = self.client_budgets.get(name, self.default_budget_bps)
            client = _Client(name, budget, self.clock())
            self._clients[name] = client
            self._rotation.append(name)
        return client

    def _find_leader(self, pending: _Pending) -> Optional[_Inflight]:
        for entry in self._inflight.values():
            if (
                entry.dataset == pending.cost.dataset
                and entry.target == pending.cost.error_bound
                and entry.shards.intersection(pending.cost.shards)
            ):
                return entry
        return None

    def _pump_locked(self) -> None:
        """Round-robin grant loop; runs until no client can proceed.

        Each pass gives every client with a queued head one turn: the head
        is granted when the client's bucket affords it and a window slot —
        or a leader to follow — is free.
        """
        if self._closed:
            return
        now = self.clock()
        progressed = True
        while progressed:
            progressed = False
            active = [n for n in self._rotation if self._clients[n].queue]
            if not active:
                break
            # Rotate the starting client so ties don't always favour the
            # same tenant.
            start = self._rr % len(active)
            self._rr += 1
            for name in active[start:] + active[:start]:
                client = self._clients[name]
                client.refill(now)
                head = client.queue[0]
                cost_bytes = head.cost.predicted_bytes
                if head.shedding or not client.affords(cost_bytes):
                    continue
                leader = self._find_leader(head)
                if leader is not None and self._follower_count >= self._follower_slots:
                    leader = None  # fall through to window rules
                if leader is None and self._inflight_count >= self.max_inflight:
                    continue
                head.leader_done = leader.done if leader is not None else None
                client.queue.pop(0)
                client.debit(cost_bytes)
                client.granted += 1
                self._grant_locked(head, now, follower=leader is not None)
                progressed = True

    def _grant_locked(self, pending: _Pending, now: float, follower: bool) -> None:
        pending.granted = True
        pending.queue_wait = max(0.0, now - pending.enqueued_at)
        self._waits += 1
        self._wait_sum += pending.queue_wait
        self._wait_max = max(self._wait_max, pending.queue_wait)
        token = self._next_token
        self._next_token += 1
        if follower:
            self._follower_count += 1
            self._followers_total += 1
        else:
            self._inflight_count += 1
            self._inflight[token] = _Inflight(
                dataset=pending.cost.dataset,
                target=pending.cost.error_bound,
                shards=set(pending.cost.shards),
            )
        self._executor.submit(self._run, pending, token, follower)

    def _run(self, pending: _Pending, token: int, follower: bool) -> None:
        try:
            if pending.leader_done is not None:
                # Follower path: let the leader finish populating the
                # slab/rung tiers, then read through them — one physical
                # fetch serves every overlapping request.
                pending.leader_done.wait(_FOLLOWER_WAIT_S)
            response = self.service.get(
                pending.path,
                pending.error_bound,
                pending.roi,
                deadline=pending.deadline,
            )
            trace = response.trace
            trace.client = pending.client
            trace.queue_wait = pending.queue_wait
            trace.degraded = pending.degraded_served
            trace.budget_debited = pending.cost.predicted_bytes
        except BaseException as exc:  # propagate through the handle
            pending.response._fail(exc)
        else:
            pending.response._serve_final(response)
            with self._lock:
                client = self._clients.get(pending.client)
                if client is not None:
                    client.delivered_bytes += trace.bytes_loaded
        finally:
            with self._lock:
                if follower:
                    self._follower_count -= 1
                else:
                    entry = self._inflight.pop(token, None)
                    if entry is not None:
                        entry.done.set()
                    self._inflight_count -= 1
                self._pump_locked()
                self._cond.notify_all()
            self._shed_queued()

    # ------------------------------------------------------------------ pacer

    def _pace(self) -> None:
        """Refill the buckets and re-grant every period until closed."""
        with self._cond:
            while not self._closed:
                self._cond.wait(_PACER_PERIOD_S)
                self._pump_locked()

    # ------------------------------------------------------------------ misc

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no request is queued or in flight; False on timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._inflight_count == 0
                and self._follower_count == 0
                and not any(c.queue for c in self._clients.values()),
                timeout,
            )

    def stats(self) -> dict:
        """Scheduler-level aggregates plus per-client QoS accounting."""
        with self._lock:
            queued = sum(len(c.queue) for c in self._clients.values())
            return {
                "submitted": self._submitted,
                "queued": queued,
                "inflight": self._inflight_count,
                "followers": self._followers_total,
                "degraded_served": self._degraded_served,
                "max_inflight": self.max_inflight,
                "queue_wait_max": self._wait_max,
                "queue_wait_mean": self._wait_sum / self._waits if self._waits else 0.0,
                "clients": {
                    name: {
                        "budget_bps": c.budget_bps,
                        "granted": c.granted,
                        "degraded": c.degraded,
                        "delivered_bytes": c.delivered_bytes,
                        "debited_bytes": c.debited_bytes,
                        "tokens": c.tokens,
                        "min_tokens": c.min_tokens,
                    }
                    for name, c in self._clients.items()
                },
            }

    def close(self, *, drain: bool = True, timeout: Optional[float] = 60.0) -> None:
        """Stop admitting; optionally drain, then fail whatever never ran."""
        with self._lock:
            if self._closed:
                return
        if drain:
            self.drain(timeout)
        with self._cond:
            self._closed = True
            doomed = [p for c in self._clients.values() for p in c.queue]
            for c in self._clients.values():
                c.queue.clear()
            self._cond.notify_all()
        for pending in doomed:
            pending.response._fail(RetrievalError("scheduler closed"))
        if self._pacer is not None:
            self._pacer.join()
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
