"""QoS scheduler: admission, budgets, batching, degradation, rotation.

The scheduler keeps four policies, each because it wins a measured
scenario (the table is in ``docs/architecture.md``); the contract under
test, per policy:

* a scheduled request's final answer is **bitwise-identical** to a direct
  ``RetrievalService.get`` (itself pinned to the serial oracle);
* a request whose canonical answer is resident **settles inside
  ``submit``** on the caller's thread — never granted or debited — and is
  the same counted, freshened, recorded slab hit a direct ``get`` is;
* token buckets — the one per-tenant byte rule — are **never overdrawn**:
  a grant happens only when the client's bucket covers the planner's
  ``predicted_bytes``, and the bucket's recorded low-water mark stays
  >= 0 under any contention; an unmetered client is granted at submit
  whatever its request costs;
* at most ``max_inflight`` requests fetch/decode concurrently;
* concurrent overlapping requests batch — one leader fetches, followers
  read the tiers it populated with zero physical reads, and a follower
  needs no window slot;
* a load-shed (degraded) response serves a *resident* coarser fidelity
  immediately and its background refine converges to the exact bytes a
  fresh serial read at the requested bound produces; shedding is retried
  when a scheduled serve completes, and a resident answer — a slab frozen
  at insert — carries the serial read's receipt.

Time-dependent paths run on an injected fake clock with the pacer thread
disabled (``pacer=False``), so refills happen only at explicit
:meth:`~repro.service.scheduler.RequestScheduler.kick` calls and the tests
are deterministic.  An unmetered scheduler starts no pacer at all.

NB: module-local data only — the conftest ``rng`` fixture is session-scoped
and shared (use local generators in new tests that need randomness).
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_frozen

from repro import ChunkedDataset
from repro.errors import ConfigurationError, RetrievalError
from repro.service import RequestScheduler, RetrievalService

SHAPE = (24, 20, 18)


def _field(shape=SHAPE, seed=0) -> np.ndarray:
    rng = np.random.default_rng(55150 + seed)
    base = rng.normal(size=shape)
    for axis in range(len(shape)):
        base = np.cumsum(base, axis=axis)
    return (base + 0.1 * rng.normal(size=shape)).astype(np.float64)


def _make_container(directory: Path) -> Path:
    path = directory / "field.rprc"
    ChunkedDataset.write(
        path, _field(), error_bound=1e-4, relative=True, n_blocks=4,
    )
    return path


def _serial(path: Path, error_bound=None, roi=None):
    with ChunkedDataset(path) as dataset:
        return dataset.read(error_bound, roi=roi)


def _bounds(path: Path):
    """(coarse, fine) absolute bounds well apart on the fidelity ladder."""
    with ChunkedDataset(path) as dataset:
        stored = dataset.absolute_bound
    return stored * 64.0, stored * 2.0


class _FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _ConcurrencyProbe:
    """Service proxy counting how many ``get`` calls overlap in time."""

    def __init__(self, service: RetrievalService, hold: float = 0.05) -> None:
        self._service = service
        self._hold = hold
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0

    def cost(self, *args, **kwargs):
        return self._service.cost(*args, **kwargs)

    def get_resident(self, *args, **kwargs):
        return self._service.get_resident(*args, **kwargs)

    def get(self, *args, **kwargs):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            time.sleep(self._hold)  # stretch the overlap window
            return self._service.get(*args, **kwargs)
        finally:
            with self._lock:
                self.active -= 1


class _FirstReadGate:
    """``source_filter`` whose first read blocks until :attr:`release` is set."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, name, source):
        return _GatedSource(source, self)


class _GatedSource:
    def __init__(self, inner, gate: _FirstReadGate) -> None:
        self._inner = inner
        self._gate = gate
        self.size = inner.size

    def read_range(self, offset, length):
        if not self._gate.entered.is_set():
            self._gate.entered.set()
            self._gate.release.wait(timeout=60)
        return self._inner.read_range(offset, length)


def _pacer_threads() -> int:
    return sum(t.name == "repro-sched-pacer" for t in threading.enumerate())


# --------------------------------------------------------------- passthrough


def test_uncontended_request_is_direct_and_identical(tmp_path):
    path = _make_container(tmp_path)
    coarse, fine = _bounds(path)
    oracle = _serial(path, fine)
    with RetrievalService() as service:
        cost = service.cost(path, fine)
        with RequestScheduler(service, max_inflight=2) as scheduler:
            handle = scheduler.submit(path, error_bound=fine, client="alice")
            final = handle.refined(timeout=60)
            assert np.array_equal(final.data, oracle.data)
            assert final.trace.bytes_loaded == oracle.bytes_loaded
            # Nothing contended: the first answer IS the final answer.
            assert handle.result(timeout=1) is final
            assert not handle.degraded
            assert final.trace.client == "alice"
            assert final.trace.degraded is False
            assert final.trace.budget_debited == cost.predicted_bytes
            assert final.trace.queue_wait >= 0.0
            stats = scheduler.stats()
            assert stats["degraded_served"] == 0
            assert stats["clients"]["alice"]["granted"] == 1


def test_blocking_request_convenience_matches_get(tmp_path):
    path = _make_container(tmp_path)
    _, fine = _bounds(path)
    with RetrievalService() as service:
        direct = service.get(path, error_bound=fine)
        with RequestScheduler(service) as scheduler:
            scheduled = scheduler.request(path, error_bound=fine, timeout=60)
            assert np.array_equal(scheduled.data, direct.data)
            assert scheduled.trace.bytes_loaded == direct.trace.bytes_loaded


def test_submit_after_close_raises(tmp_path):
    path = _make_container(tmp_path)
    with RetrievalService() as service:
        scheduler = RequestScheduler(service)
        scheduler.close()
        with pytest.raises(RetrievalError):
            scheduler.submit(path)


def test_submit_racing_close_raises_instead_of_hanging(tmp_path):
    """A ``close()`` that runs while ``submit`` is costing its request has
    already swept the queues: the submit must refuse, not enqueue a
    request nothing will ever serve."""
    path = _make_container(tmp_path)
    costing, release = threading.Event(), threading.Event()

    class _SlowCost(_NothingResident):
        def cost(self, *args, **kwargs):
            costing.set()
            release.wait(timeout=60)
            return super().cost(*args, **kwargs)

    outcome: dict = {}
    with RetrievalService() as service:
        scheduler = RequestScheduler(_SlowCost(service), pacer=False)

        def submit() -> None:
            try:
                outcome["handle"] = scheduler.submit(path)
            except RetrievalError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=submit)
        thread.start()
        assert costing.wait(timeout=60)
        scheduler.close()
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert "error" in outcome, outcome
        assert scheduler.stats()["queued"] == 0


def test_large_request_on_idle_unmetered_scheduler_is_granted_at_submit(tmp_path):
    """An unmetered client's request is granted inside ``submit`` whatever
    it costs.  Deficit round-robin used to hold a request predicting more
    than its 1 MiB quantum until a pacer tick (with ``pacer=False``, until
    a ``kick()``)."""
    path = tmp_path / "large.rprc"
    noise = np.random.default_rng(55150).normal(size=(80, 64, 64))
    ChunkedDataset.write(
        path, noise, error_bound=1e-9, relative=True, n_blocks=4,
    )
    oracle = _serial(path)
    clock = _FakeClock()
    with RetrievalService() as service:
        with RequestScheduler(
            service, max_inflight=2, clock=clock, pacer=False
        ) as scheduler:
            handle = scheduler.submit(path, client="big")
            assert handle.cost.predicted_bytes > 1 << 20
            assert scheduler.stats()["queued"] == 0  # granted, not queued
            final = handle.refined(timeout=60)  # no kick()
    assert final.trace.queue_wait == 0.0
    assert np.array_equal(final.data, oracle.data)


@pytest.mark.parametrize(
    "options, pacers",
    [
        ({}, 0),
        ({"max_inflight": 2}, 0),
        ({"client_budgets": {"free": 0}}, 0),
        ({"budget_bps": 1000}, 1),
        ({"client_budgets": {"free": 0, "vip": 5000}}, 1),
    ],
)
def test_pacer_thread_runs_only_when_a_budget_is_set(options, pacers):
    """The pacer only refills buckets: with every rate 0 there is nothing
    to refill and no thread wakes for it.  ``close()`` joins it."""
    with RetrievalService() as service:
        before = _pacer_threads()
        with RequestScheduler(service, **options):
            assert _pacer_threads() - before == pacers
        assert _pacer_threads() == before


@pytest.mark.parametrize(
    "options",
    [
        {"max_inflight": 0},
        {"max_inflight": -3},
        {"max_inflight": 2.5},
        {"budget_bps": -5},
        {"client_budgets": {"vip": -1}},
    ],
)
def test_bad_knobs_are_configuration_errors_not_clamps(options):
    """A window below one or a negative rate used to be clamped (to a
    window of 1, to unmetered); it is rejected where the knob lives."""
    with RetrievalService() as service:
        with pytest.raises(ConfigurationError):
            RequestScheduler(service, pacer=False, **options)


# -------------------------------------------------------------- token budget


def test_budget_gates_the_grant_until_tokens_accrue(tmp_path):
    path = _make_container(tmp_path)
    _, fine = _bounds(path)
    oracle = _serial(path, fine)
    clock = _FakeClock()
    with RetrievalService() as service:
        cost = service.cost(path, fine).predicted_bytes
        bps = 1000
        assert cost > bps  # the request outsizes one second of budget
        with RequestScheduler(
            service, budget_bps=bps, clock=clock, pacer=False
        ) as scheduler:
            handle = scheduler.submit(path, error_bound=fine, client="slow")
            # Nothing resident to degrade to and the bucket is short: the
            # request stays queued, undelivered.
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.3)
            assert scheduler.stats()["queued"] == 1
            # Accrue just under the cost: still gated (never overdrawn).
            clock.advance((cost - 1) / bps - 1.0)  # bucket was born full
            scheduler.kick()
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.3)
            # Cross the cost: granted, refined, bitwise.
            clock.advance(2.0 / bps + 1.0)
            scheduler.kick()
            final = handle.refined(timeout=60)
            assert np.array_equal(final.data, oracle.data)
            assert final.trace.budget_debited == cost
            client = scheduler.stats()["clients"]["slow"]
            assert client["min_tokens"] >= 0.0
            assert client["debited_bytes"] == cost


def test_budget_never_overdrawn_under_contention(tmp_path):
    path = _make_container(tmp_path)
    coarse, fine = _bounds(path)
    requests = [(None, coarse), ((slice(0, 12),), fine), (None, fine)]
    budgets = {"a": 3_000, "b": 9_000, "c": 27_000, "d": 0}
    with RetrievalService() as service:
        with RequestScheduler(
            service, max_inflight=2, client_budgets=budgets
        ) as scheduler:
            handles = [
                scheduler.submit(path, error_bound=bound, roi=roi, client=name)
                for name in budgets
                for roi, bound in requests
            ]
            finals = [h.refined(timeout=120) for h in handles]
        stats = scheduler.stats()
    for name in budgets:
        client = stats["clients"][name]
        assert client["min_tokens"] >= 0.0, name
        # Some requests may settle free from residency once another tenant
        # has loaded the data (never debited); the rest must be granted.
        assert 0 <= client["granted"] <= len(requests)
    assert sum(stats["clients"][n]["granted"] for n in budgets) >= 1
    # No request starved: every one delivered its exact serial answer.
    for (roi, bound), final in zip(requests * len(budgets), finals):
        oracle = _serial(path, bound, roi=roi)
        assert np.array_equal(final.data, oracle.data)


# ---------------------------------------------------------------- admission


def test_admission_window_bounds_concurrent_decodes(tmp_path):
    path = _make_container(tmp_path)
    with ChunkedDataset(path) as dataset:
        stored = dataset.absolute_bound
    # Distinct fidelity targets: no request can follow another's fetch.
    bounds = [stored * (2.0 ** k) for k in range(4, 0, -1)]
    with RetrievalService() as service:
        probe = _ConcurrencyProbe(service)
        with RequestScheduler(probe, max_inflight=1) as scheduler:
            handles = [
                scheduler.submit(path, error_bound=bound, client=f"c{i}")
                for i, bound in enumerate(bounds)
            ]
            finals = [handle.refined(timeout=120) for handle in handles]
        assert probe.max_active == 1
    for bound, final in zip(bounds, finals):
        oracle = _serial(path, bound)
        assert np.array_equal(final.data, oracle.data)


def test_overlapping_requests_batch_leader_and_follower(tmp_path):
    path = _make_container(tmp_path)
    _, fine = _bounds(path)
    oracle = _serial(path, fine)
    gate = _FirstReadGate()
    with RetrievalService(source_filter=gate) as service:
        with RequestScheduler(service, max_inflight=4) as scheduler:
            leader = scheduler.submit(path, error_bound=fine, client="lead")
            assert gate.entered.wait(timeout=60)  # leader is mid-fetch
            follower = scheduler.submit(path, error_bound=fine, client="tail")
            assert scheduler.stats()["followers"] == 1
            gate.release.set()
            lead_final = leader.refined(timeout=120)
            tail_final = follower.refined(timeout=120)
    assert np.array_equal(lead_final.data, oracle.data)
    assert np.array_equal(tail_final.data, oracle.data)
    # One physical fetch served both: the follower replayed the leader's
    # slabs (consumed accounting identical, physical zero).
    assert tail_final.trace.bytes_loaded == oracle.bytes_loaded
    assert tail_final.trace.physical_reads == 0


def test_follower_needs_no_window_slot(tmp_path):
    """Batching's measured win: with the one window slot held by a cold
    leader, an identical request is granted at once as its follower
    instead of queueing behind it for a slot."""
    path = _make_container(tmp_path)
    _, fine = _bounds(path)
    oracle = _serial(path, fine)
    gate = _FirstReadGate()
    with RetrievalService(source_filter=gate) as service:
        with RequestScheduler(service, max_inflight=1) as scheduler:
            leader = scheduler.submit(path, error_bound=fine, client="lead")
            assert gate.entered.wait(timeout=60)  # the only slot is busy
            follower = scheduler.submit(path, error_bound=fine, client="tail")
            stats = scheduler.stats()
            assert stats["inflight"] == 1 and stats["queued"] == 0
            assert stats["followers"] == 1
            gate.release.set()
            finals = [leader.refined(timeout=120), follower.refined(timeout=120)]
    for final in finals:
        assert np.array_equal(final.data, oracle.data)
    assert finals[1].trace.physical_reads == 0


# -------------------------------------------------------------- degradation


def test_degraded_serve_then_background_refine_is_bitwise(tmp_path):
    path = _make_container(tmp_path)
    coarse, fine = _bounds(path)
    coarse_oracle = _serial(path, coarse)
    fine_oracle = _serial(path, fine)
    clock = _FakeClock()
    with RetrievalService() as service:
        service.get(path, error_bound=coarse)  # a coarse fidelity is resident
        cost = service.cost(path, fine).predicted_bytes
        with RequestScheduler(
            service, budget_bps=100, clock=clock, pacer=False
        ) as scheduler:
            handle = scheduler.submit(path, error_bound=fine, client="shed")
            # Over budget: the resident coarse answer is served immediately,
            # marked degraded, with nothing consumed and nothing debited.
            first = handle.result(timeout=10)
            assert handle.degraded
            assert first.trace.degraded is True
            assert first.trace.client == "shed"
            assert first.trace.bytes_loaded == 0
            assert first.trace.physical_reads == 0
            assert first.trace.budget_debited == 0
            assert first.trace.achieved_bound == coarse_oracle.error_bound
            assert np.array_equal(first.data, coarse_oracle.data)
            assert scheduler.stats()["degraded_served"] == 1
            # The refine is still queued; fund it and it converges to the
            # exact fresh-serial answer at the requested bound.
            clock.advance(cost / 100 + 1.0)
            scheduler.kick()
            final = handle.refined(timeout=120)
            assert np.array_equal(final.data, fine_oracle.data)
            assert final.trace.bytes_loaded == fine_oracle.bytes_loaded
            assert final.trace.degraded is True  # the request was load-shed
            assert final.trace.budget_debited == cost


def test_resident_full_fidelity_settles_without_debit(tmp_path):
    path = _make_container(tmp_path)
    coarse, fine = _bounds(path)
    clock = _FakeClock()
    with RetrievalService() as service:
        warmed = service.get(path, error_bound=fine)
        with RequestScheduler(
            service, budget_bps=100, clock=clock, pacer=False
        ) as scheduler:
            # The bucket cannot afford the request, but the resident answer
            # already meets the bound: served free, nothing queued.
            handle = scheduler.submit(path, error_bound=fine, client="free")
            final = handle.refined(timeout=10)
            assert not handle.degraded
            assert final.trace.degraded is False
            assert final.trace.budget_debited == 0
            assert np.array_equal(final.data, warmed.data)
            stats = scheduler.stats()
            assert stats["queued"] == 0
            assert stats["clients"]["free"]["granted"] == 0
            assert stats["degraded_served"] == 0


def test_queued_request_is_shed_when_a_scheduled_serve_completes(tmp_path):
    """Re-shedding runs on completion: a request that found nothing
    resident at submit is served the fidelity another tenant's finished
    serve left behind — no pacer, no kick."""
    path = _make_container(tmp_path)
    coarse, fine = _bounds(path)
    coarse_oracle = _serial(path, coarse)
    fine_oracle = _serial(path, fine)
    clock = _FakeClock()
    with RetrievalService() as service:
        cost = service.cost(path, fine).predicted_bytes
        with RequestScheduler(
            service, client_budgets={"short": 100}, clock=clock, pacer=False
        ) as scheduler:
            starved = scheduler.submit(path, error_bound=fine, client="short")
            with pytest.raises(TimeoutError):
                starved.result(timeout=0.2)  # nothing resident yet
            scheduler.request(path, error_bound=coarse, client="free", timeout=60)
            first = starved.result(timeout=10)
            assert starved.degraded
            assert np.array_equal(first.data, coarse_oracle.data)
            clock.advance(cost / 100 + 1.0)
            scheduler.kick()
            final = starved.refined(timeout=60)
    assert np.array_equal(final.data, fine_oracle.data)


def _drop_tier(service: RetrievalService, tier: str) -> None:
    service.cache.purge(lambda entry_tier, key: entry_tier == tier)


def test_settled_resident_answer_carries_the_serial_receipt(tmp_path):
    """A canonical answer from residency is the bytes of a fresh serial
    read, so it reports that read's consumption — the slab's recorded
    trace — like a warm hit, never an empty receipt."""
    path = _make_container(tmp_path)
    _, fine = _bounds(path)
    oracle = _serial(path, fine)
    clock = _FakeClock()
    with RetrievalService() as service:
        service.get(path, error_bound=fine)
        resident = service.get_resident(path, fine)
        assert resident.trace.canonical
        assert resident.trace.bytes_loaded == oracle.bytes_loaded
        assert sorted(resident.trace.ranges) == sorted(oracle.ranges)
        with RequestScheduler(
            service, budget_bps=100, clock=clock, pacer=False
        ) as scheduler:
            handle = scheduler.submit(path, error_bound=fine, client="free")
            final = handle.refined(timeout=10)
            assert scheduler.stats()["clients"]["free"]["granted"] == 0
    assert final.trace.budget_debited == 0
    assert final.trace.bytes_loaded == oracle.bytes_loaded
    assert sorted(final.trace.ranges) == sorted(oracle.ranges)
    assert np.array_equal(final.data, oracle.data)


def _slab_hits(service: RetrievalService) -> int:
    return service.stats()["cache"]["hits"].get("slab", 0)


def test_a_settled_request_is_counted_as_one_slab_hit(tmp_path):
    """The service aggregate sees every answer the scheduler hands out at
    the requested bound: a request settled from residency counts once in
    ``requests`` and as one slab hit per shard in ``tier_hits`` and the
    cache; a degraded first answer counts nothing, its refine once."""
    path = _make_container(tmp_path)
    coarse, fine = _bounds(path)
    clock = _FakeClock()
    with RetrievalService() as service:
        warmed = service.get(path, error_bound=fine)
        n = len(warmed.trace.shards)
        with RequestScheduler(
            service, budget_bps=100, clock=clock, pacer=False
        ) as scheduler:
            before = service.stats()
            settled = scheduler.submit(path, error_bound=fine, client="free").refined(timeout=10)
            assert settled.trace.budget_debited == 0
            assert scheduler.stats()["clients"]["free"]["granted"] == 0
            after = service.stats()
            assert after["requests"] == before["requests"] + 1
            assert after["tier_hits"]["slab"] == before["tier_hits"].get("slab", 0) + n
            assert _slab_hits(service) == before["cache"]["hits"].get("slab", 0) + n
            # Coarser than resident is no canonical answer: shed degraded.
            cost = service.cost(path, error_bound=coarse).predicted_bytes
            shed = scheduler.submit(path, error_bound=coarse, client="shed")
            assert shed.result(timeout=10).trace.degraded
            assert service.stats()["requests"] == after["requests"]
            assert _slab_hits(service) == after["cache"]["hits"]["slab"]
            clock.advance(cost / 100 + 1.0)
            scheduler.kick()
            shed.refined(timeout=60)
            assert scheduler.drain(timeout=60)
            assert service.stats()["requests"] == after["requests"] + 1


def _annotations_dropped(trace) -> dict:
    out = trace.to_json()
    for name in ("client", "queue_wait", "budget_debited"):
        del out[name]
    return out


def test_a_settled_hit_is_indistinguishable_from_a_get_hit(tmp_path):
    """Two services warmed alike, one served warm repeats through ``get``
    and one through the scheduler, agree on every byte, every trace field
    but the scheduler's annotations, every cache counter, the LRU order and
    the eviction victim of the next insert: the settle freshens and counts
    its slabs exactly as a ``get`` hit does."""
    path = _make_container(tmp_path)
    _, fine = _bounds(path)
    first_half, second_half = ((0, 12),), ((12, 24),)

    def warm(service: RetrievalService) -> None:
        service.get(path, fine, first_half)
        service.get(path, fine, second_half)
        _drop_tier(service, "rung")  # the LRU order of slabs alone
        service.cache.budget_bytes = service.cache.resident_bytes  # full

    direct, scheduled = RetrievalService(), RetrievalService()
    with direct, scheduled, RequestScheduler(scheduled, pacer=False) as scheduler:
        warm(direct)
        warm(scheduled)
        for _ in range(3):
            by_get = direct.get(path, fine, first_half)
            handle = scheduler.submit(path, fine, first_half)
            by_scheduler = handle.result(timeout=0)
            assert by_scheduler.data.tobytes() == by_get.data.tobytes()
            assert by_scheduler.trace.tier_hits == {"slab": 2}
            assert _annotations_dropped(by_scheduler.trace) == _annotations_dropped(by_get.trace)
        assert scheduler.stats()["clients"]["default"]["granted"] == 0
        assert scheduled.cache.to_json() == direct.cache.to_json()
        assert scheduled.stats() == direct.stats()
        # The repeats freshened the first half's slabs in both: the next
        # insert evicts the second half's first.
        keys = [list(service.cache._entries) for service in (direct, scheduled)]
        assert keys[0] == keys[1]
        for service in (direct, scheduled):
            service.get(path, fine * 8.0, ((0, 6),))
        victims = [
            [key for key in before if key not in service.cache._entries]
            for before, service in zip(keys, (direct, scheduled))
        ]
        assert victims[0] == victims[1]
        assert victims[0] and victims[0][0][1][1] == "shard-0002"


def test_a_warm_hit_stays_on_the_callers_thread_and_walks_no_cache(tmp_path, monkeypatch):
    """A warm request settles inside ``submit``: its handle is answered
    before ``submit`` returns and no executor task is made for it.  The
    settle, like a warm ``get``, is O(selected shards): a repeat region's
    shard selection is remembered (no ``slices_intersect``) and each
    planned slab is looked up by key (no ``cache.scan`` of the tier)."""
    import repro.io.dataset as dataset_mod

    path = _make_container(tmp_path)
    _, fine = _bounds(path)
    roi = ((0, 12), (0, 20), (0, 18))
    oracle = _serial(path, fine, roi)
    calls = {"submit": 0, "intersect": 0, "scan": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    with RetrievalService() as service:
        service.get(path, fine, roi)
        monkeypatch.setattr(
            dataset_mod, "slices_intersect", counting("intersect", dataset_mod.slices_intersect)
        )
        monkeypatch.setattr(service.cache, "scan", counting("scan", service.cache.scan))
        with RequestScheduler(service, pacer=False) as scheduler:
            monkeypatch.setattr(
                scheduler._executor, "submit", counting("submit", scheduler._executor.submit)
            )
            handle = scheduler.submit(path, fine, roi)
            final = handle.result(timeout=0)
            assert handle.refined(timeout=0) is final
        warm = service.get(path, fine, roi)
        assert warm.trace.tier_hits == final.trace.tier_hits == {"slab": 2}
    assert calls == {"submit": 0, "intersect": 0, "scan": 0}
    assert final.data.tobytes() == oracle.data.tobytes()
    assert warm.data.tobytes() == oracle.data.tobytes()


def test_a_scheduled_request_probes_freshness_once_per_service_pass(tmp_path, monkeypatch):
    """Settle-first adds no freshness probe — for a URL each is a ranged
    GET: the ``cost`` right after ``submit``'s ``get_resident`` reuses that
    call's probe, so a cold request probes twice (the look, the ``get``),
    as when it was only costed and served, and a warm settle once."""
    from repro.service import service as service_mod

    path = _make_container(tmp_path)
    coarse, fine = _bounds(path)
    probes = []
    real_is_fresh = service_mod._Session.is_fresh

    def counting_is_fresh(session):
        probes.append(session.sid)
        return real_is_fresh(session)

    with RetrievalService() as service:
        service.get(path, coarse)  # the session is open
        monkeypatch.setattr(service_mod._Session, "is_fresh", counting_is_fresh)
        with RequestScheduler(service, pacer=False) as scheduler:
            counts = []
            for _ in range(2):
                del probes[:]
                scheduler.submit(path, fine).refined(timeout=30)
                counts.append(len(probes))
            # A direct cost after another lookup probes again.
            del probes[:]
            service.get_resident(path, coarse)
            service.get(path, coarse)
            service.cost(path, coarse)
    assert counts == [2, 1]
    assert len(probes) == 3


def test_a_closed_scheduler_counts_nothing_in_the_service(tmp_path):
    """``submit`` refuses a closed scheduler before it asks the service for
    a resident answer: a warm request counts no hit and records nothing."""
    path = _make_container(tmp_path)
    with RetrievalService() as service:
        service.get(path)
        scheduler = RequestScheduler(service, pacer=False)
        scheduler.close()
        before = service.stats()
        with pytest.raises(RetrievalError):
            scheduler.submit(path)
        assert service.stats() == before


def test_a_slab_evicted_during_the_settle_counts_as_a_miss(tmp_path, monkeypatch):
    """The settle answers from the slabs it looked up (they are frozen), but
    a slab evicted between that look and its count is reported as the miss
    the cache recorded, never as a hit."""
    path = _make_container(tmp_path)
    _, fine = _bounds(path)
    oracle = _serial(path, fine)
    with RetrievalService() as service:
        n = len(service.get(path, fine).trace.shards)
        real_get = service.cache.get
        evicted = []

        def evicting_get(tier, key, count=True):
            if tier == "slab" and not evicted:
                evicted.append(key)
                service.cache.invalidate(tier, key)
            return real_get(tier, key, count)

        monkeypatch.setattr(service.cache, "get", evicting_get)
        before = service.stats()
        resident = service.get_resident(path, fine)
        after = service.stats()
    assert resident.trace.canonical
    assert resident.data.tobytes() == oracle.data.tobytes()
    assert resident.trace.tier_hits == {"slab": n - 1}
    assert resident.trace.tier_misses == {"slab": 1}
    for counter, delta in (("hits", n - 1), ("misses", 1)):
        assert after["cache"][counter]["slab"] == before["cache"][counter].get("slab", 0) + delta


def test_a_grant_cannot_race_a_shed_look_into_a_double_count(tmp_path, monkeypatch):
    """While a completion's re-shed looks at a queued request, the grant
    loop passes it by: a look that finds the canonical answer settles the
    request, which then counts in the service once — not once as the
    settle and again as a granted ``get``."""
    path = _make_container(tmp_path)
    _, fine = _bounds(path)
    clock = _FakeClock()
    with RetrievalService() as service:
        cost = service.cost(path, fine).predicted_bytes
        with RequestScheduler(
            service, budget_bps=cost, clock=clock, pacer=False
        ) as scheduler:
            monkeypatch.setattr(scheduler, "_find_leader", lambda pending: None)
            gate = threading.Event()
            real_get = service.get

            def gated_get(*args, **kwargs):
                gate.wait(10)
                return real_get(*args, **kwargs)

            monkeypatch.setattr(service, "get", gated_get)
            leader = scheduler.submit(path, fine)  # the full bucket pays it
            queued = scheduler.submit(path, fine)  # the empty one cannot
            real_resident = service.get_resident

            def racing_resident(*args, **kwargs):
                # A refill lands mid-look: the grant loop runs right now.
                clock.advance(cost / scheduler.default_budget_bps + 1.0)
                scheduler.kick()
                return real_resident(*args, **kwargs)

            monkeypatch.setattr(service, "get_resident", racing_resident)
            gate.set()
            leader.refined(timeout=30)
            settled = queued.refined(timeout=30)
            assert scheduler.drain(timeout=30)
            stats = scheduler.stats()["clients"]["default"]
    assert settled.trace.budget_debited == 0
    assert stats["granted"] == 1
    assert service.stats()["requests"] == 2
    assert service.stats()["tier_hits"]["slab"] == len(settled.trace.shards)


def test_a_resident_slab_cannot_be_poisoned(tmp_path):
    """The resident path trusts a slab because it is frozen at insert: the
    writes that would poison one raise, so the resident answer — and a
    budget-short request settled on it — is the serial read."""
    path = _make_container(tmp_path)
    _, fine = _bounds(path)
    oracle = _serial(path, fine)
    clock = _FakeClock()
    with RetrievalService() as service:
        service.get(path, error_bound=fine)
        _drop_tier(service, "rung")
        slabs = [entry for _, entry in service.cache.scan("slab", lambda k: True)]
        assert slabs
        for entry in slabs:
            assert_frozen(entry.data)
        resident = service.get_resident(path, fine)
        assert resident.trace.canonical
        assert resident.data.tobytes() == oracle.data.tobytes()
        with RequestScheduler(
            service, budget_bps=100, clock=clock, pacer=False
        ) as scheduler:
            handle = scheduler.submit(path, error_bound=fine, client="short")
            final = handle.refined(timeout=10)
            assert scheduler.stats()["clients"]["short"]["granted"] == 0
        assert service.get(path, error_bound=fine).data.tobytes() == oracle.data.tobytes()
    assert final.data.tobytes() == oracle.data.tobytes()


def test_finer_residency_is_not_canonical_and_refines_to_serial(tmp_path):
    """A resident fidelity *finer* than requested meets the bound but is
    different bytes from the canonical serve — it must be served only as a
    degraded first answer, with the refine converging to the exact serial
    reconstruction of the requested bound (never settled for free)."""
    path = _make_container(tmp_path)
    coarse, fine = _bounds(path)
    clock = _FakeClock()
    with RetrievalService() as service:
        warmed = service.get(path, error_bound=fine)
        cost = service.cost(path, error_bound=coarse).predicted_bytes
        bps = max(1, cost // 4)  # bucket cannot afford the request on arrival
        with RequestScheduler(
            service, max_inflight=1, budget_bps=bps, clock=clock, pacer=False
        ) as scheduler:
            handle = scheduler.submit(path, error_bound=coarse, client="c")
            first = handle.result(timeout=10)
            assert handle.degraded
            assert first.trace.degraded is True
            assert first.trace.canonical is False
            assert first.trace.achieved_bound <= coarse  # inside the bound…
            assert np.array_equal(first.data, warmed.data)  # …but finer bytes
            clock.advance(cost / bps + 1.0)
            scheduler.kick()
            final = handle.refined(timeout=60)
            assert final.trace.budget_debited == cost
    oracle = _serial(path, coarse)
    assert np.array_equal(final.data, oracle.data)
    assert not np.array_equal(final.data, warmed.data)


# ----------------------------------------------------------------- fairness


def test_fair_share_across_threaded_clients(tmp_path):
    """Four tenants with equal budgets and identical workloads, submitted
    from racing threads, are debited identical byte totals — no tenant
    starves or freeloads — through a window smaller than the offered load.

    Each tenant works on its own copy of the container and the workload's
    bounds strictly tighten, so no request can be satisfied (and silently
    cancelled) by fidelity already resident — every request is granted and
    debited its metadata-planned cost, which makes the per-tenant totals
    exactly comparable regardless of thread interleaving."""
    source = _make_container(tmp_path)
    with ChunkedDataset(source) as dataset:
        stored = dataset.absolute_bound
    workload = [
        (None, stored * 64.0),
        (None, stored * 8.0),
        ((slice(0, 12),), stored * 2.0),
    ]
    clients = [f"tenant-{i}" for i in range(4)]
    paths = {}
    for client in clients:
        copy = tmp_path / f"{client}.rprc"
        copy.write_bytes(source.read_bytes())
        paths[client] = copy
    with RetrievalService() as service:
        with RequestScheduler(
            service, max_inflight=2, budget_bps=200_000
        ) as scheduler:
            results: dict = {}

            def run(client):
                handles = [
                    scheduler.submit(
                        paths[client], error_bound=bound, roi=roi, client=client
                    )
                    for roi, bound in workload
                ]
                results[client] = [h.refined(timeout=120) for h in handles]

            threads = [
                threading.Thread(target=run, args=(client,)) for client in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
                assert not thread.is_alive()
        stats = scheduler.stats()
    debited = {
        name: stats["clients"][name]["debited_bytes"] for name in clients
    }
    # Identical workloads, equal budgets: byte-for-byte equal debits.
    assert len(set(debited.values())) == 1
    assert debited[clients[0]] > 0
    for name in clients:
        assert stats["clients"][name]["granted"] == len(workload)
        assert stats["clients"][name]["min_tokens"] >= 0.0
        assert stats["clients"][name]["delivered_bytes"] > 0
    for client, finals in results.items():
        for (roi, bound), final in zip(workload, finals):
            oracle = _serial(paths[client], bound, roi=roi)
            assert np.array_equal(final.data, oracle.data)
            assert final.trace.client == client


# ---------------------------------------------------------------- stats


class _NothingResident:
    """Service proxy with nothing ever resident: no request settles or
    degrades, so every submitted request is granted."""

    def __init__(self, service: RetrievalService) -> None:
        self._service = service

    def cost(self, *args, **kwargs):
        return self._service.cost(*args, **kwargs)

    def get(self, *args, **kwargs):
        return self._service.get(*args, **kwargs)

    def get_resident(self, *args, **kwargs):
        return None


def test_queue_wait_stats_stay_constant_size(tmp_path):
    """``queue_wait_max`` / ``queue_wait_mean`` equal what the served
    traces report, and serving more requests grows no scheduler attribute
    (a list of every queue wait used to grow by one entry per request)."""
    path = _make_container(tmp_path)
    coarse, _ = _bounds(path)
    ticks = itertools.count()

    def clock() -> float:
        return float(next(ticks))  # every reading is a later instant

    def sizes(scheduler) -> dict:
        return {
            name: len(value)
            for name, value in vars(scheduler).items()
            if isinstance(value, (list, dict, set))
        }

    traces = []
    with RetrievalService() as service:
        with RequestScheduler(
            _NothingResident(service), max_inflight=1, clock=clock, pacer=False
        ) as scheduler:

            def serve(n: int) -> None:
                handles = [scheduler.submit(path, error_bound=coarse) for _ in range(n)]
                traces.extend(handle.refined(timeout=60).trace for handle in handles)
                assert scheduler.drain(timeout=60)

            serve(3)
            before = sizes(scheduler)
            serve(9)
            assert sizes(scheduler) == before
            stats = scheduler.stats()
    waits = [trace.queue_wait for trace in traces]
    assert len(waits) == 12 and max(waits) > 0.0
    assert stats["queue_wait_max"] == max(waits)
    assert stats["queue_wait_mean"] == sum(waits) / len(waits)
