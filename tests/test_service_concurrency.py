"""Concurrent serving: no cross-request bleed, honest traces, bounded cache.

N threads hammer one :class:`~repro.service.RetrievalService` with
overlapping and disjoint ROI + refinement requests.  Three families of
invariants:

* **no bleed** — every response is bitwise-identical to the serial oracle
  for *its own* request, no matter which other requests ran concurrently
  or which cache tier answered;
* **traces sum** — per-request consumed bytes equal the sum of the
  request's reported ranges, and the service aggregate equals the sum over
  every returned trace;
* **budget invariant** — under a deliberately tiny budget the cache's
  high-water mark never passes the byte budget, while answers stay right.

NB: module-local data only — the conftest ``rng`` fixture is session-scoped
and shared (use ``local_rng`` in new tests that need randomness).
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import ChunkedDataset
from repro.service import RetrievalService


def _field(shape, seed=0) -> np.ndarray:
    rng = np.random.default_rng(71819 + seed)
    base = rng.normal(size=shape)
    for axis in range(len(shape)):
        base = np.cumsum(base, axis=axis)
    return (base + 0.1 * rng.normal(size=shape)).astype(np.float64)


@pytest.fixture(scope="module")
def container(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("svc_conc") / "field.rprc"
    ChunkedDataset.write(
        path, _field((24, 20, 18)), error_bound=1e-4, relative=True,
        n_blocks=4,
    )
    return path


@pytest.fixture(scope="module")
def matrix(container):
    """Deterministic request matrix + per-request serial oracles.

    Overlapping ROIs (straddling shard boundaries), disjoint ROIs (single
    shard), the full domain, and a coarse→fine bound ladder so concurrent
    refinement hits the rung path.
    """
    with ChunkedDataset(container) as dataset:
        stored = dataset.absolute_bound
        shape = dataset.shape
    requests = [
        (None, stored * 64.0),
        (None, stored * 8.0),
        (tuple(slice(s // 4, 3 * s // 4) for s in shape), stored * 64.0),
        (tuple(slice(s // 4, 3 * s // 4) for s in shape), stored * 8.0),
        ((slice(0, shape[0] // 2), slice(0, 6), slice(0, 6)), stored * 16.0),
        ((slice(shape[0] // 2, shape[0]), slice(12, 20), slice(10, 18)),
         stored * 16.0),
        (None, None),
    ]
    oracles = []
    for roi, bound in requests:
        with ChunkedDataset(container) as dataset:
            oracles.append(dataset.read(bound, roi=roi))
    return requests, oracles


N_THREADS = 8


def _run_threads(worker, n=N_THREADS):
    """Run ``worker(thread_index)`` on N threads; re-raise the first error."""
    errors = []
    results = [None] * n

    def _guard(index):
        try:
            results[index] = worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [threading.Thread(target=_guard, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def test_concurrent_mixed_requests_no_bleed(container, matrix):
    """Interleaved overlapping/disjoint/refining requests never bleed."""
    requests, oracles = matrix
    with RetrievalService() as service:

        def worker(index):
            out = []
            # Each thread walks the matrix from its own offset, so at any
            # moment different threads are on different (roi, bound) pairs.
            for step in range(len(requests) * 2):
                k = (index + step) % len(requests)
                roi, bound = requests[k]
                response = service.get(container, error_bound=bound, roi=roi)
                out.append((k, response))
            return out

        per_thread = _run_threads(worker)
        traces = []
        for thread_results in per_thread:
            for k, response in thread_results:
                assert np.array_equal(response.data, oracles[k].data), (
                    f"request {k} bled: served bytes differ from its oracle"
                )
                assert response.trace.bytes_loaded == oracles[k].bytes_loaded
                assert sorted(response.trace.ranges) == sorted(oracles[k].ranges)
                traces.append(response.trace)
        # Per-trace internal consistency and aggregate bookkeeping.
        for trace in traces:
            assert trace.bytes_loaded == sum(n for _, _, n in trace.ranges)
        stats = service.stats()
        assert stats["requests"] == len(traces)
        assert stats["bytes_loaded"] == sum(t.bytes_loaded for t in traces)
        assert stats["physical_reads"] == sum(t.physical_reads for t in traces)
        assert stats["retries"] == 0
        hits = sum(t.tier_hits.get("slab", 0) for t in traces)
        assert hits == stats["tier_hits"].get("slab", 0)
        assert hits > 0  # repeats were actually answered from cache


def test_concurrent_identical_requests_decode_each_shard_once(container, matrix):
    """N identical simultaneous requests: one cold decode per shard, the
    rest served from the slab tier — and every answer bitwise-identical."""
    requests, oracles = matrix
    roi, bound = requests[0]
    oracle = oracles[0]
    n_shards = len(oracle.shards)
    with RetrievalService() as service:
        # Open the session up front so the manifest read (charged to no
        # request) is out of the pinned reader's counter baseline.
        session = service._session(container)
        baseline_reads = session.dataset.physical_reads
        barrier = threading.Barrier(N_THREADS)

        def worker(_index):
            barrier.wait()
            return service.get(container, error_bound=bound, roi=roi)

        responses = _run_threads(worker)
        for response in responses:
            assert np.array_equal(response.data, oracle.data)
            assert response.trace.bytes_loaded == oracle.bytes_loaded
        misses = sum(r.trace.tier_misses.get("slab", 0) for r in responses)
        hits = sum(r.trace.tier_hits.get("slab", 0) for r in responses)
        assert misses == n_shards  # each shard went cold exactly once
        assert hits == N_THREADS * n_shards - n_shards
        # Reported physical reads are the truth: summed over every trace
        # they equal exactly what the pinned container reader performed
        # (cold decodes + the once-per-session header parses, each charged
        # to exactly one request).
        total_physical = sum(r.trace.physical_reads for r in responses)
        assert total_physical == session.dataset.physical_reads - baseline_reads


def test_budget_invariant_under_concurrent_eviction(container, matrix):
    """A tiny budget under 8-thread pressure: the high-water mark never
    passes the budget and every evicted-and-recomputed answer stays right."""
    requests, oracles = matrix
    with ChunkedDataset(container) as dataset:
        shard_nbytes = max(
            int(np.prod(s.shape)) * dataset.dtype.itemsize for s in dataset.shards
        )
    budget = shard_nbytes + shard_nbytes // 2
    with RetrievalService(cache_bytes=budget) as service:

        def worker(index):
            out = []
            for step in range(len(requests)):
                k = (index * 3 + step) % len(requests)
                roi, bound = requests[k]
                response = service.get(container, error_bound=bound, roi=roi)
                out.append((k, response))
            return out

        per_thread = _run_threads(worker)
        for thread_results in per_thread:
            for k, response in thread_results:
                assert np.array_equal(response.data, oracles[k].data)
                assert sorted(response.trace.ranges) == sorted(oracles[k].ranges)
        assert service.cache.max_resident_bytes <= budget
        assert service.cache.resident_bytes <= budget
        assert sum(service.cache.stats.evictions.values()) > 0
        stats = service.stats()
        assert stats["requests"] == N_THREADS * len(requests)


def test_requests_racing_on_a_rewritten_file_share_one_new_session(tmp_path):
    """The freshness probe runs outside the service lock, so several
    requests can find one session stale at once: exactly one replaces it,
    its cache entries are purged, and every request gets the new session."""
    path = tmp_path / "field.rprc"

    def write(seed):
        ChunkedDataset.write(
            path, _field((12, 10, 8), seed), error_bound=1e-4, relative=True,
            n_blocks=2,
        )

    write(1)
    interval = sys.getswitchinterval()
    with RetrievalService() as service:
        service.get(path)
        stale = service._session(path)
        write(2)
        barrier = threading.Barrier(N_THREADS)

        def worker(_index):
            barrier.wait()
            return service._session(path)

        sys.setswitchinterval(1e-6)
        try:
            sessions = _run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        assert len({id(session) for session in sessions}) == 1
        assert sessions[0] is not stale and service._next_sid == 2
        for tier in ("slab", "rung"):
            assert not service.cache.scan(tier, lambda key: key[0] == stale.sid)
        with ChunkedDataset(path) as dataset:
            oracle = dataset.read()
        assert np.array_equal(service.get(path).data, oracle.data)
