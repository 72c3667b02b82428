"""Fault injection against the serving layer's degradation ladder.

Injected failures — flaky byte-range sources (:mod:`repro.io.faults`
plans raising or short-reading on scheduled global read numbers) and
poisoned cache entries — must degrade exactly along the ladder the rest of
the repo uses:

* a bad *source* costs the attempt (and any tier entry built from it) and
  is retried from scratch up to ``service.RETRIES`` times before
  propagating (tests patch the constant and the backoff schedule of
  :mod:`repro.io.remote`);
* a slab entry cannot be poisoned at all: it is frozen at insert, so a
  write through numpy raises instead of reaching the cached bytes.

NB: module-local data only — the conftest ``rng`` fixture is session-scoped
and shared (use ``local_rng`` in new tests that need randomness).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from conftest import assert_frozen

from repro import ChunkedDataset, IPComp
from repro.errors import ConfigurationError
from repro.io import remote
from repro.io.faults import FaultInjector, FaultPlan
from repro.service import RetrievalService
from repro.service import service as service_mod


def _field(shape, seed=0) -> np.ndarray:
    rng = np.random.default_rng(82920 + seed)
    base = rng.normal(size=shape)
    for axis in range(len(shape)):
        base = np.cumsum(base, axis=axis)
    return (base + 0.1 * rng.normal(size=shape)).astype(np.float64)


def _make_container(directory: Path) -> Path:
    path = directory / "field.rprc"
    ChunkedDataset.write(
        path, _field((24, 20, 18)), error_bound=1e-4, relative=True,
        n_blocks=4,
    )
    return path


def _serial(path: Path, error_bound=None, roi=None):
    with ChunkedDataset(path) as dataset:
        return dataset.read(error_bound, roi=roi)


# ------------------------------------------------------------- flaky sources


@pytest.mark.parametrize("mode", ["raise", "short"])
def test_every_kth_read_fails_but_answers_stay_identical(tmp_path, mode):
    """A source failing every k-th ``read_range`` is retried per shard; the
    final answer and its consumed receipt match the serial oracle exactly.

    ``raise`` surfaces an :class:`OSError`; ``short`` returns a truncated
    payload (which the service's traced source converts into a
    ``StreamFormatError``) — both are rungs of the same retry ladder.
    """
    path = _make_container(tmp_path)
    oracle = _serial(path)
    # Calibrate k to one more than the longest per-shard read run, so any
    # single attempt trips the injector at most once and every retry (which
    # starts a fresh run right after a failure) completes before the next
    # k-th read comes due.
    probe = FaultInjector(FaultPlan.never())
    with RetrievalService(source_filter=probe.source_filter) as service:
        service.get(path)
    k = max(source.reads for source in probe.sources) + 1
    injector = FaultInjector(FaultPlan.every(k, kind=mode))

    with RetrievalService(source_filter=injector.source_filter) as service:
        response = service.get(path)
        assert np.array_equal(response.data, oracle.data)
        assert response.trace.bytes_loaded == oracle.bytes_loaded
        assert sorted(response.trace.ranges) == sorted(oracle.ranges)
        assert response.trace.retries >= 1  # failures actually happened
        # Failed attempts cost real reads beyond what the answer consumed.
        assert response.trace.physical_reads > 0
        assert service.stats()["retries"] == response.trace.retries
        # Warm repeat: the cache absorbs the flakiness entirely.
        warm = service.get(path)
        assert np.array_equal(warm.data, oracle.data)
        assert warm.trace.physical_reads == 0


def test_exhausted_retries_propagate(tmp_path, monkeypatch):
    monkeypatch.setattr(service_mod, "RETRIES", 1)
    path = _make_container(tmp_path)
    injector = FaultInjector(FaultPlan.always())
    with RetrievalService(source_filter=injector.source_filter) as service:
        with pytest.raises(OSError):
            service.get(path)
    assert injector.faults_injected == injector.total_reads > 0
    # Configuration mistakes are not retried: the source is never touched.
    injector = FaultInjector(FaultPlan.always())
    with RetrievalService(source_filter=injector.source_filter) as service:
        with pytest.raises(ConfigurationError):
            service.get(path, error_bound=-1.0)
        assert injector.total_reads == 0


def test_rung_failure_falls_back_to_cold_rebuild(tmp_path):
    """A rung whose source goes bad mid-refine is invalidated; the request
    is rebuilt from scratch and stays bitwise-identical."""
    path = tmp_path / "stream.ipc"
    path.write_bytes(
        IPComp(error_bound=1e-4, relative=True).compress(_field((20, 16), 1))
    )
    from repro import ProgressiveRetriever

    stored = ProgressiveRetriever(path.read_bytes()).header.error_bound
    coarse, fine = stored * 64.0, stored
    fine_oracle = ProgressiveRetriever(path.read_bytes()).retrieve(error_bound=fine)
    fail_reads: set = set()
    # FaultPlan.at keeps the set by reference, so poisoning it mid-run works.
    injector = FaultInjector(FaultPlan.at(fail_reads))

    with RetrievalService(source_filter=injector.source_filter) as service:
        service.get(path, error_bound=coarse)
        # Poison exactly the refine's first delta read: the resident rung's
        # next touch fails, forcing invalidation + a cold rebuild (whose own
        # reads, starting one later, all succeed).
        fail_reads.add(injector.total_reads + 1)
        refined = service.get(path, error_bound=fine)
        assert np.array_equal(refined.data, fine_oracle.data)
        assert refined.trace.bytes_loaded == fine_oracle.bytes_loaded
        assert refined.trace.retries == 1
        assert refined.trace.tier_misses.get("slab", 0) == 1
        # The rebuilt state is healthy: warm repeat, then a genuine rung
        # refine would no longer trip (no further injected reads).
        warm = service.get(path, error_bound=fine)
        assert np.array_equal(warm.data, fine_oracle.data)
        assert warm.trace.physical_reads == 0


# ------------------------------------------------------------ poisoned cache


def test_a_slab_cannot_be_poisoned_and_serves_the_serial_read(tmp_path):
    """Every resident slab is frozen at insert: the writes that would poison
    one in place raise, and the next warm get is bitwise the serial read,
    with nothing invalidated."""
    path = _make_container(tmp_path)
    oracle = _serial(path)
    with RetrievalService() as service:
        service.get(path)
        slabs = [entry for _, entry in service.cache.scan("slab", lambda key: True)]
        assert slabs
        for entry in slabs:
            assert_frozen(entry.data)
        warm = service.get(path)
        assert warm.trace.physical_reads == 0
        assert warm.trace.tier_hits.get("slab", 0) == len(slabs)
        assert warm.data.tobytes() == oracle.data.tobytes()
        assert sum(service.stats()["cache"]["invalidations"].values()) == 0


# ------------------------------------------------------------- retry backoff


def test_retry_backoff_is_capped_jittered_and_recorded(tmp_path, monkeypatch):
    """Retries pace themselves: each failed attempt sleeps a capped
    exponential delay with deterministic per-(shard, attempt) jitter, the
    exact slept values land in ``trace.retry_delays``, and an identical run
    reproduces them bit-for-bit (no hot-spinning, no flaky traces)."""
    path = _make_container(tmp_path)
    oracle = _serial(path)
    base, cap = 0.05, 0.06  # cap < base·2: attempt 2 exercises the clamp
    monkeypatch.setattr(service_mod, "RETRIES", 3)
    monkeypatch.setattr(remote, "BACKOFF", base)
    monkeypatch.setattr(remote, "BACKOFF_CAP", cap)

    def run():
        injector = FaultInjector(FaultPlan.first(2))
        slept = []
        with RetrievalService(
            source_filter=injector.source_filter, sleep=slept.append
        ) as service:
            return service.get(path), slept

    response, slept = run()
    assert np.array_equal(response.data, oracle.data)
    delays = response.trace.retry_delays
    assert response.trace.retries == 2
    assert delays == slept  # every recorded delay was actually slept
    assert len(delays) == 2
    for attempt, delay in enumerate(delays, start=1):
        raw = min(cap, base * 2.0 ** (attempt - 1))
        assert 0.5 * raw <= delay <= raw
    # Uncapped, attempt 2 would wait base·2 = 0.1s; the cap clamps it.
    assert delays[1] <= cap
    # Deterministic jitter: an identical service reproduces the run exactly.
    again, slept_again = run()
    assert again.trace.retry_delays == delays
    assert slept_again == slept


def test_zero_backoff_disables_pacing(tmp_path, monkeypatch):
    monkeypatch.setattr(remote, "BACKOFF", 0.0)
    path = _make_container(tmp_path)
    oracle = _serial(path)
    injector = FaultInjector(FaultPlan.at({1}))
    slept = []

    with RetrievalService(
        source_filter=injector.source_filter, sleep=slept.append
    ) as service:
        response = service.get(path)
    assert np.array_equal(response.data, oracle.data)
    assert response.trace.retries == 1
    assert all(delay == 0.0 for delay in slept)
    assert all(delay == 0.0 for delay in response.trace.retry_delays)


# ------------------------------------------------------------ degraded get


def test_degraded_get_checks_freshness_once(tmp_path, monkeypatch):
    """A ``get`` that exhausts its ladder and degrades to the resident rung
    checks its session's freshness once — the request's own check, not a
    second one on the way into the resident path."""
    path = _make_container(tmp_path)
    injector = FaultInjector(FaultPlan.never())
    with RetrievalService(
        source_filter=injector.source_filter, sleep=lambda _delay: None
    ) as service:
        stored = service.cost(path).error_bound
        assert not service.get(path, error_bound=stored * 64).trace.degraded
        injector.plan = FaultPlan.always()
        checks = []
        is_fresh = service_mod._Session.is_fresh
        monkeypatch.setattr(
            service_mod._Session, "is_fresh",
            lambda session: checks.append(session) or is_fresh(session),
        )
        response = service.get(path, error_bound=stored)
        assert response.trace.degraded
        assert len(checks) == 1
