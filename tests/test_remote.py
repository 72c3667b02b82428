"""The remote stack: transport, the one resilience ladder, mirrors, faults.

Four invariant families pin the remote layer (`repro.io.aio` +
`repro.io.remote` + `repro.io.faults` + `repro.io.rangeserver`):

* **transport** — ranged GETs over a loopback Range server return exactly
  the requested window (206 validated, Range-ignoring 200 sliced), size
  probing works, and CRC mismatches surface as
  :class:`~repro.errors.RemoteIntegrityError`, never as stream corruption;
* **resilience units** — circuit-breaker transitions, one endpoint's
  ladder (CRC gate, retries, the request deadline) over a scripted
  ``aget`` fake, and the mirror set's health ranking and hedged-read
  accounting over scripted endpoints, all on a virtual-time event loop:
  backoffs and hedge thresholds advance the injected clock, nothing waits
  for real;
* **policy rows** — the scenarios that decided which resilience policies
  stay: a long-lived stack on a flaky link keeps serving (no retry
  budget), a dying backend is cut off by its breaker (and a circuit-open
  rejection is not retried), and a request's deadline never fails a
  concurrent request on the same session;
* **fault plans** — deterministic, JSON-round-trippable schedules that
  reproduce the old hand-rolled flaky-source idioms exactly;
* **byte identity** — {v1, v2} × {stream, container} retrieved over
  {clean HTTP, client faults on ≥20% of reads, server faults, a dead
  primary with a replica} equals the local serial read in data,
  ``bytes_loaded`` and consumed ranges, with the healing visible in the
  stack's stats; and the one source tower — {local, HTTP} × {container,
  stream} × {read, refine ladder, service, CLI} — equals the per-shard
  bare-retriever oracle.

NB: module-local data only — the conftest ``rng`` fixture is session-scoped
and shared (use ``local_rng`` in new tests that need randomness).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import cumsum_field

from repro import ChunkedDataset, IPComp, ProgressiveRetriever
from repro.cli import main
from repro.core.stream import BytesSource
from repro.datasets import load_dataset
from repro.errors import (
    ConfigurationError,
    RemoteIntegrityError,
    RemoteSourceError,
    StreamFormatError,
)
from repro.io import BlockContainerWriter, aio, remote
from repro.io.aio import (
    CONNECTIONS,
    HEDGE_MIN_SAMPLES,
    OPENING_WINDOW,
    AsyncHTTPTransport,
    AsyncPrefetcher,
    AsyncRangeSource,
    EventLoopThread,
    _Endpoint,
    open_remote_source,
)
from repro.io.container import BlockContainerReader
from repro.io.faults import FAULT_KINDS, FaultInjector, FaultPlan
from repro.io.rangeserver import RangeServer
from repro.io.remote import (
    REQUEST_DEADLINE,
    CircuitBreaker,
    find_remote_source,
    is_url,
    jittered_backoff,
    remote_fingerprint,
)
from repro.retrieval.engine import DEFAULT_HEADER_PRIME
from repro.retrieval.prefetch import PrefetchSource
from repro.service import RetrievalService
from repro.service import service as service_mod


@pytest.fixture(scope="module")
def replica(served_dir) -> RangeServer:
    """A second endpoint over the same bytes (the mirror-failover target)."""
    with RangeServer(served_dir) as srv:
        yield srv


# ----------------------------------------------------------------- transport


def test_is_url():
    assert is_url("http://host/x") and is_url("https://host/x")
    assert not is_url("/tmp/x.rprc") and not is_url(Path("http://host/x"))


def _open_transport(url) -> AsyncHTTPTransport:
    """A bare transport after its opening read (what sizes it)."""

    async def opened():
        transport = await AsyncHTTPTransport(url).open()
        assert transport.size is None  # no sizing request: nothing sent yet
        await transport.aget(-OPENING_WINDOW, OPENING_WINDOW)
        return transport

    return EventLoopThread.shared().call(opened())


def test_transport_reads_exact_windows(served_dir, server):
    blob = (served_dir / "v2.rprc").read_bytes()
    call = EventLoopThread.shared().call
    transport = _open_transport(server.url_for("v2.rprc"))
    try:
        assert transport.size == len(blob)
        assert transport.n_requests == 1  # sized by the opening read alone
        data, crc = call(transport.aget(10, 33))
        assert data == blob[10:43]
        assert crc == zlib.crc32(data)  # the declared CRC rides the payload
        # A suffix read returns the object's last bytes, CRC declared too.
        data, crc = call(transport.aget(-100, 100))
        assert data == blob[-100:] and crc == zlib.crc32(data)
        # Zero-length reads never touch the network.
        before = transport.n_requests
        assert call(transport.aget(5, 0)) == (b"", None)
        assert transport.n_requests == before
        with pytest.raises(StreamFormatError, match="past remote object end"):
            call(transport.aget(len(blob) - 2, 5))
        assert transport.egress_bytes >= 33
        assert transport.breaker.state == "closed"
    finally:
        call(transport.aclose())


def test_transport_handles_range_ignoring_server(served_dir):
    """A 200 full-body response is honoured by slicing (counted as egress)."""
    blob = (served_dir / "v2.ipc").read_bytes()
    call = EventLoopThread.shared().call
    with RangeServer(served_dir, ignore_range=True) as plain:
        transport = _open_transport(plain.url_for("v2.ipc"))
        try:
            assert transport.size == len(blob)
            data, crc = call(transport.aget(7, 21))
            assert data == blob[7:28]
            assert crc is None  # a full-body CRC would cover the body, not the slice
            assert transport.egress_bytes >= len(blob)
        finally:
            call(transport.aclose())


def test_range_ignoring_server_is_read_with_one_request(served_dir):
    """The 200 that answers the opening read *is* the object: the whole body
    becomes the window and every later read is served from it."""
    blob = (served_dir / "v2.rprc").read_bytes()
    with ChunkedDataset(served_dir / "v2.rprc") as dataset:
        oracle = dataset.read()
    with RangeServer(served_dir, ignore_range=True) as plain:
        stack = open_remote_source(plain.url_for("v2.rprc"))
        with ChunkedDataset(plain.url_for("v2.rprc"), source=stack) as dataset:
            result = dataset.read()
        stats = stack.stats()
    assert result.data.tobytes() == oracle.data.tobytes()
    assert result.ranges == oracle.ranges
    assert stats["requests"] == 1 and stats["egress_bytes"] == len(blob)


def test_endpoint_refusing_suffix_ranges_is_sized_the_slow_way(served_dir, monkeypatch):
    """A 4xx to the opening read falls back to HEAD sizing and an empty
    window; every read then goes to the wire as it always did."""
    from repro.io import rangeserver

    get = rangeserver._Handler.do_GET

    def refusing_get(self):
        if (self.headers.get("Range") or "").startswith("bytes=-"):
            self.send_error(416)
        else:
            get(self)

    monkeypatch.setattr(rangeserver._Handler, "do_GET", refusing_get)
    blob = (served_dir / "v2.rprc").read_bytes()
    with RangeServer(served_dir) as srv:
        with open_remote_source(srv.url_for("v2.rprc")) as stack:
            assert stack.size == len(blob)
            assert stack.stats()["retries"] == 0
            before = srv.range_requests
            assert stack.read_range(len(blob) - 12, 12) == blob[-12:]
            assert srv.range_requests == before + 1  # no window to serve it


def test_missing_object_errors(server):
    with pytest.raises(RemoteSourceError):
        open_remote_source(server.url_for("no-such-file"))


def test_failed_container_open_closes_the_stack_it_opened(tmp_path, settles):
    """``ChunkedDataset(url)`` on neither a container nor a stream raises —
    and must not leave the stack it opened itself (unreachable by the
    caller) connected."""
    (tmp_path / "junk.bin").write_bytes(bytes(2 * OPENING_WINDOW))
    with RangeServer(tmp_path) as srv:
        with pytest.raises(StreamFormatError, match="not a repro block container"):
            ChunkedDataset(srv.url_for("junk.bin"))
        assert settles(lambda: srv.open_connections == 0)


# ----------------------------------------------------------- resilience units


class _VirtualTimeLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock jumps instead of waiting.

    ``asyncio.sleep`` and ``wait(timeout=)`` cost no wall time and advance
    ``loop.time()`` by exactly the requested delay — the injected ``clock``
    of the ladder layers.  Waiting with nothing scheduled (a deadlocked
    test) raises instead of hanging.
    """

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0
        select = self._selector.select

        def jump(timeout=None):
            if timeout is None:
                raise RuntimeError("virtual-time loop would block forever")
            self._now += timeout
            return select(0)

        self._selector.select = jump

    def time(self) -> float:
        return self._now


def _run(body):
    """Run ``body(loop)`` to completion on a fresh virtual-time loop."""
    loop = _VirtualTimeLoop()
    try:
        return loop.run_until_complete(body(loop))
    finally:
        loop.close()


#: Unit-test endpoints are named, never connected: a scripted ``wire``
#: answers their reads through the tamper hook.
_UNIT_URL = "http://unit.invalid/x"


def _endpoint(wire, clock=time.monotonic, size=None) -> _Endpoint:
    endpoint = _Endpoint(_UNIT_URL, tamper=lambda _url, _transport: wire, clock=clock)
    endpoint.transport.size = size  # what an opening read would have learned
    return endpoint


def test_crc_gate_classifies_corruption(monkeypatch):
    monkeypatch.setattr(aio, "RETRIES", 0)  # one attempt: the gate alone

    class _Wire:
        crc = None

        async def aget(self, offset, length):
            return b"hello"[offset : offset + length], self.crc

    async def body(loop):
        wire = _Wire()
        endpoint = _endpoint(wire, loop.time)
        wire.crc = zlib.crc32(b"hello")
        assert await endpoint.aread_range(0, 5) == b"hello"
        assert endpoint.crc_verified == 1
        wire.crc = zlib.crc32(b"other")
        with pytest.raises(RemoteIntegrityError) as excinfo:
            await endpoint.aread_range(0, 5)
        # Retryable (an OSError), and NOT stream corruption.
        assert isinstance(excinfo.value, OSError)
        assert not isinstance(excinfo.value, StreamFormatError)
        # No declared CRC: passed through unverified.
        wire.crc = None
        assert await endpoint.aread_range(0, 5) == b"hello"
        assert (endpoint.crc_verified, endpoint.crc_mismatches) == (1, 1)

    _run(body)


def test_circuit_breaker_transitions(monkeypatch):
    monkeypatch.setattr(remote, "BREAKER_THRESHOLD", 3)
    monkeypatch.setattr(remote, "BREAKER_COOLDOWN", 5.0)
    clock = {"t": 0.0}
    breaker = CircuitBreaker(clock=lambda: clock["t"])
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"
    breaker.record_failure()  # threshold reached
    assert breaker.state == "open"
    assert not breaker.allow()
    clock["t"] = 5.0  # cooldown elapsed: exactly one probe allowed
    assert breaker.allow()
    assert breaker.state == "half-open"
    assert not breaker.allow()  # second caller during the probe: rejected
    breaker.record_failure()  # failed probe re-opens
    assert breaker.state == "open" and not breaker.allow()
    clock["t"] = 10.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == "closed" and breaker.allow()


def test_jittered_backoff_is_capped_deterministic(monkeypatch):
    assert (remote.BACKOFF, remote.BACKOFF_CAP) == (0.05, 1.0)
    for attempt in (1, 2, 3, 6):
        raw = min(1.0, 0.05 * 2.0 ** (attempt - 1))
        delay = jittered_backoff("k", attempt)
        assert 0.5 * raw <= delay <= raw
        assert delay == jittered_backoff("k", attempt)
    assert jittered_backoff("a", 2) != jittered_backoff("b", 2)
    monkeypatch.setattr(remote, "BACKOFF", 0.0)
    assert jittered_backoff("k", 1) == 0.0


class _FailingWire:
    """Fails the first ``failures`` reads, then serves ``payload``."""

    def __init__(self, failures=10**9, payload=b"x" * 8):
        self.payload = payload
        self.failures = failures
        self.calls = 0

    async def aget(self, offset, length):
        self.calls += 1
        if self.calls <= self.failures:
            raise RemoteSourceError(f"injected failure #{self.calls}")
        return self.payload[offset : offset + length], None


def test_retry_ladder_heals_and_records_delays():
    async def body(loop):
        wire = _FailingWire(failures=2)
        endpoint = _endpoint(wire, loop.time)
        assert await endpoint.aread_range(0, 8) == wire.payload
        assert wire.calls == 3 and endpoint.retries == 2
        # The ladder slept exactly its recorded delays, nothing else.
        assert loop.time() == pytest.approx(sum(endpoint.retry_delays))
        for attempt, delay in enumerate(endpoint.retry_delays, start=1):
            assert delay == jittered_backoff(f"{_UNIT_URL}@0", attempt)

    _run(body)


def test_both_retry_ladders_sleep_the_one_schedule(tmp_path, monkeypatch):
    """The backoff schedule has one home, :mod:`repro.io.remote`: patching
    ``BACKOFF`` / ``BACKOFF_CAP`` there moves the recorded delays of the
    endpoint's ladder and of the service's alike."""
    base, cap = 0.2, 0.3  # attempt 2 clamps: base·2 > cap
    monkeypatch.setattr(remote, "BACKOFF", base)
    monkeypatch.setattr(remote, "BACKOFF_CAP", cap)

    def assert_follows(delays):
        assert len(delays) == 2
        for attempt, delay in enumerate(delays, start=1):
            raw = min(cap, base * 2.0 ** (attempt - 1))
            assert 0.5 * raw <= delay <= raw

    async def body(loop):
        endpoint = _endpoint(_FailingWire(failures=2), loop.time)
        await endpoint.aread_range(0, 8)
        return endpoint.retry_delays

    assert_follows(_run(body))
    path = tmp_path / "field.rprc"
    ChunkedDataset.write(
        path, cumsum_field((12, 10, 8), 3), error_bound=1e-4, relative=True,
        n_blocks=2, workers=0,
    )
    injector = FaultInjector(FaultPlan.first(2))
    slept = []
    with RetrievalService(
        source_filter=injector.source_filter, sleep=slept.append
    ) as service:
        delays = service.get(path).trace.retry_delays
    assert_follows(delays)
    assert slept == delays


def test_deadline_expiry_mid_retry():
    async def body(loop):
        wire = _FailingWire()
        endpoint = _endpoint(wire, loop.time)
        # Expired before the read starts: fail fast, the backend is never hit.
        REQUEST_DEADLINE.set(0.0)
        with pytest.raises(RemoteSourceError, match="deadline exceeded"):
            await endpoint.aread_range(0, 4)
        assert wire.calls == 0
        # Mid-ladder: a backoff that would cross the deadline re-raises the
        # *underlying* error instead of sleeping past the deadline.
        REQUEST_DEADLINE.set(0.06)
        with pytest.raises(RemoteSourceError, match="injected failure"):
            await endpoint.aread_range(0, 4)
        # Attempt 1 backs off (< 0.06); attempt 2's delay >= 0.05 would cross.
        assert wire.calls == 2
        assert 0.0 < loop.time() < 0.06

    _run(body)


class _ScriptedMirror:
    """Serves ``payload`` after ``delay`` (virtual) seconds; raises while
    ``failing`` is set; counts the reads cancelled under it."""

    def __init__(self, payload, failing=False, delay=0.0):
        self.size = len(payload)
        self.payload = payload
        self.failing = failing
        self.delay = delay
        self.calls = 0
        self.cancelled = 0

    async def aget(self, offset, length):
        self.calls += 1
        try:
            if self.delay:
                await asyncio.sleep(self.delay)
        except asyncio.CancelledError:
            self.cancelled += 1
            raise
        if self.failing:
            raise RemoteSourceError("mirror down")
        return self.payload[offset : offset + length], None


@pytest.fixture
def one_attempt(monkeypatch):
    """Endpoints make one attempt per read: every failure reaches the set."""
    monkeypatch.setattr(aio, "RETRIES", 0)


def _mirror_set(wires, clock=time.monotonic) -> AsyncRangeSource:
    """A stack over scripted endpoints, read through its coroutine side
    (no loop thread, no opening window)."""
    endpoints = [_endpoint(w, clock, size=w.size) for w in wires]
    return AsyncRangeSource(endpoints, None, b"", clock=clock)


def test_mirror_failover_and_health_ranking(one_attempt):
    payload = bytes(range(64))

    async def body(loop):
        primary = _ScriptedMirror(payload, failing=True)
        backup = _ScriptedMirror(payload)
        mirror = _mirror_set([primary, backup], loop.time)
        assert await mirror.aread_range(3, 9) == payload[3:12]
        assert mirror.failovers == 1
        # The failure re-ranks: the next read goes straight to the backup.
        assert await mirror.aread_range(0, 4) == payload[0:4]
        assert primary.calls == 1 and backup.calls == 2
        # Recovery: once the backup fails too, the (healed) primary serves.
        primary.failing = False
        backup.failing = True
        assert await mirror.aread_range(0, 4) == payload[0:4]
        assert mirror.stats()["failovers"] >= 1
        # Every mirror down: the last error propagates.
        primary.failing = True
        with pytest.raises(RemoteSourceError, match="mirror down"):
            await mirror.aread_range(0, 4)

    _run(body)
    with pytest.raises(RemoteSourceError, match="disagree on object size"):
        _mirror_set([_ScriptedMirror(b"abc"), _ScriptedMirror(b"abcd")])


def test_unsampled_mirror_ranks_after_a_timed_healthy_one(one_attempt):
    """An unknown latency is not latency 0: the replica that has never been
    timed must not displace a healthy primary after its first read."""
    payload = bytes(range(64))

    async def body(loop):
        primary = _ScriptedMirror(payload, delay=0.03)
        backup = _ScriptedMirror(payload)  # instant, but nobody knows that yet
        mirror = _mirror_set([primary, backup], loop.time)
        for _ in range(3):
            assert await mirror.aread_range(0, 4) == payload[:4]
        assert (primary.calls, backup.calls) == (3, 0)
        assert mirror.stats()["mirrors"][0]["latency_ewma_s"] == pytest.approx(0.03)
        # Failures still outrank any latency: one failed read demotes the
        # primary below the unsampled (but unfailed) replica.
        primary.failing = True
        assert await mirror.aread_range(0, 4) == payload[:4]
        primary.failing = False
        assert await mirror.aread_range(0, 4) == payload[:4]
        assert (primary.calls, backup.calls) == (4, 2)

    _run(body)


async def _arm_hedging(mirror, primary) -> None:
    """HEDGE_MIN_SAMPLES timed reads at the primary's delay: the adaptive
    threshold (their p90) is then exactly that delay."""
    for _ in range(HEDGE_MIN_SAMPLES):
        await mirror.aread_range(0, 4)
    assert mirror.hedges == 0 and primary.calls == HEDGE_MIN_SAMPLES


def test_hedged_read_fires_and_cancels_the_loser(one_attempt):
    payload = bytes(range(32))

    async def body(loop):
        primary = _ScriptedMirror(payload, delay=0.01)
        backup = _ScriptedMirror(payload)
        mirror = _mirror_set([primary, backup], loop.time)
        await _arm_hedging(mirror, primary)
        primary.delay = 10.0
        began = loop.time()
        assert await mirror.aread_range(4, 16) == payload[4:20]
        # Answered at the hedge threshold, not after the primary's 10 s.
        assert loop.time() - began == pytest.approx(0.01)
        assert mirror.hedges == 1 and mirror.hedge_wins == 1
        # The loser was aborted on the wire: nothing wasted, nothing running.
        assert mirror.hedge_cancelled == 1 and primary.cancelled == 1
        stats = mirror.stats()
        assert stats["hedges"] == 1 and stats["hedge_wasted_bytes"] == 0
        assert len(asyncio.all_tasks()) == 1  # only this test body
        # A fast primary never hedges.
        primary.delay = 0.0
        assert await mirror.aread_range(0, 4) == payload[0:4]
        assert mirror.hedges == 1

    _run(body)


def test_hedge_loser_finishing_in_the_same_tick_is_accounted(one_attempt):
    payload = bytes(range(32))

    async def body(loop):
        primary = _ScriptedMirror(payload, delay=0.01)
        backup = _ScriptedMirror(payload, delay=0.01)
        mirror = _mirror_set([primary, backup], loop.time)
        await _arm_hedging(mirror, primary)
        # Hedge fires at +0.01; backup (0.01) and primary (0.02) both land at
        # +0.02 — the loser's bytes hit the wire for nothing and are counted,
        # never consumed.
        primary.delay = 0.02
        assert await mirror.aread_range(4, 16) == payload[4:20]
        assert mirror.hedges == 1 and mirror.hedge_cancelled == 0
        assert mirror.stats()["hedge_wasted_bytes"] == 16

    _run(body)


def test_remote_fingerprint_is_size_and_tail_crc():
    class _Bytes:
        def __init__(self, blob):
            self.blob = blob
            self.size = len(blob)

        def read_range(self, offset, length):
            return self.blob[offset : offset + length]

    small = _Bytes(b"abcdef")
    assert remote_fingerprint(small) == (6, 0, zlib.crc32(b"abcdef"))
    big = _Bytes(bytes(5000))
    assert remote_fingerprint(big) == (5000, 0, zlib.crc32(bytes(4096)))
    assert remote_fingerprint(_Bytes(b"abcdeg")) != remote_fingerprint(small)


def test_find_remote_source_walks_wrapper_chains(served_dir, server):
    stack = open_remote_source(server.url_for("v2.rprc"))
    try:
        assert find_remote_source(stack) is stack
        prefetch = PrefetchSource(stack, None)
        assert find_remote_source(prefetch) is stack
        reader = BlockContainerReader(stack)
        assert find_remote_source(reader) is stack
        assert find_remote_source(object()) is None
    finally:
        stack.close()


# -------------------------------------------------------------- fault plans


def test_fault_plan_rules_fire_deterministically():
    assert FaultPlan.never().fault_for(1) is None
    every = FaultPlan.every(3, kind="short")
    assert [n for n in range(1, 10) if every.fault_for(n)] == [3, 6, 9]
    first = FaultPlan.first(2, kind="stall", seconds=0.5)
    assert first.fault_for(2).seconds == 0.5 and first.fault_for(3) is None
    assert FaultPlan.always().fault_for(10**6).kind == "raise"
    # First matching rule wins across composed plans.
    combo = FaultPlan.every(2, kind="raise") + FaultPlan.always(kind="corrupt")
    assert combo.fault_for(2).kind == "raise"
    assert combo.fault_for(3).kind == "corrupt"


def test_fault_plan_at_keeps_the_set_by_reference():
    poison = set()
    plan = FaultPlan.at(poison)
    assert plan.fault_for(7) is None
    poison.add(7)
    assert plan.fault_for(7).kind == "raise"


def test_fault_plan_seeded_rates_are_reproducible_and_calibrated():
    plan = FaultPlan.seeded("seed-x", {"raise": 0.3})
    fired = [n for n in range(1, 2001) if plan.fault_for(n)]
    assert 0.25 < len(fired) / 2000 < 0.35
    again = FaultPlan.seeded("seed-x", {"raise": 0.3})
    assert [n for n in range(1, 2001) if again.fault_for(n)] == fired
    # A different seed draws a different schedule.
    other = FaultPlan.seeded("seed-y", {"raise": 0.3})
    assert [n for n in range(1, 2001) if other.fault_for(n)] != fired
    with pytest.raises(ConfigurationError):
        FaultPlan.seeded("s", {"raise": 1.5})


def test_fault_plan_json_round_trip(tmp_path):
    plan = (
        FaultPlan.every(3, kind="short")
        + FaultPlan.at({2, 9}, kind="corrupt")
        + FaultPlan.first(1, kind="stall", seconds=0.25)
        + FaultPlan.seeded("s", {"raise": 0.1, "latency": 0.05}, seconds=0.01)
    )
    rt = FaultPlan.from_json(plan.to_json())
    path = tmp_path / "plan.json"
    plan.to_file(path)
    ft = FaultPlan.from_file(path)
    for n in range(1, 300):
        expected = plan.fault_for(n)
        for other in (rt, ft):
            got = other.fault_for(n)
            if expected is None:
                assert got is None
            else:
                assert (got.kind, got.seconds) == (expected.kind, expected.seconds)
    with pytest.raises(ConfigurationError):
        FaultPlan.from_file(tmp_path / "missing.json")


def test_fault_injector_counts_globally_across_sources():
    class _Bytes:
        size = 8

        def read_range(self, offset, length):
            return b"\x01" * length

    slept = []
    injector = FaultInjector(
        FaultPlan.at({2}, kind="latency", seconds=0.5), sleep=slept.append
    )
    a = injector.wrap(_Bytes(), name="a")
    b = injector.wrap(_Bytes(), name="b")
    a.read_range(0, 4)  # global read 1: clean
    b.read_range(0, 4)  # global read 2: latency fault (on source b)
    assert injector.total_reads == 2 and injector.faults_injected == 1
    assert slept == [0.5]
    assert (a.reads, b.reads) == (1, 1)
    assert injector.stats() == {
        "total_reads": 2, "faults_injected": 1, "injected": {"latency": 1},
    }


def test_fault_injecting_source_applies_each_kind():
    class _Bytes:
        size = 4
        tag = 7

        def read_range(self, offset, length):
            return b"abcd"[offset : offset + length]

    def one(kind, seconds=0.0, sleep=None):
        injector = FaultInjector(
            FaultPlan.always(kind=kind, seconds=seconds),
            sleep=sleep if sleep is not None else time.sleep,
        )
        return injector.wrap(_Bytes())

    with pytest.raises(RemoteSourceError, match="injected failure"):
        one("raise").read_range(0, 4)
    slept = []
    with pytest.raises(RemoteSourceError, match="stall timed out"):
        one("stall", seconds=0.3, sleep=slept.append).read_range(0, 4)
    assert slept == [0.3]
    assert one("short").read_range(0, 4) == b"abc"
    assert one("corrupt").read_range(0, 4) == bytes([ord("a") ^ 0xFF]) + b"bcd"
    slept = []
    assert one("latency", seconds=0.2, sleep=slept.append).read_range(0, 4) == b"abcd"
    assert slept == [0.2]
    # Unknown attributes delegate to the wrapped source.
    assert one("short").tag == 7


def test_tamper_applies_each_kind_on_the_wire_duck_type():
    class _Transport:
        size = 4

        async def aget(self, offset, length):
            return b"abcd"[offset : offset + length], 99

    async def body(loop):
        def one(kind, seconds=0.0):
            plan = FaultPlan.always(kind=kind, seconds=seconds)
            return FaultInjector(plan).tamper("http://h/x", _Transport())

        with pytest.raises(RemoteSourceError, match=r"injected failure .*http://h/x"):
            await one("raise").aget(0, 4)
        with pytest.raises(RemoteSourceError, match="stall timed out"):
            await one("stall", seconds=0.3).aget(0, 4)
        assert loop.time() == pytest.approx(0.3)
        # The declared CRC is forwarded untouched: the gate above catches both.
        assert await one("short").aget(0, 4) == (b"abc", 99)
        assert await one("corrupt").aget(0, 4) == (bytes([ord("a") ^ 0xFF]) + b"bcd", 99)
        assert await one("latency", seconds=0.2).aget(0, 4) == (b"abcd", 99)
        assert loop.time() == pytest.approx(0.5)

    _run(body)


def test_one_plan_means_the_same_around_a_source_and_on_the_wire():
    """One :class:`FaultPlan` drawn through a sync injector (around a block
    source) and an async one (around a transport): read for read, the same
    exception type and message, or the same truncated / corrupted bytes,
    after the same wait."""
    blob = bytes(range(256)) * 4
    reads = [(0, 64), (64, 0), (100, 300), (1000, 24), (5, 1), (7, 9), (512, 512)]
    plan = FaultPlan.at({2}, kind="short")
    for number, kind in enumerate(FAULT_KINDS, start=3):
        plan = plan + FaultPlan.at({number}, kind=kind, seconds=0.25 * number)

    slept = []
    source = FaultInjector(plan, sleep=slept.append).wrap(BytesSource(blob), "shard")
    expected = []
    for offset, length in reads:
        try:
            data = source.read_range(offset, length)
        except RemoteSourceError as exc:
            expected.append((type(exc), str(exc), sum(slept)))
        else:
            expected.append((data, sum(slept)))

    class _Transport:
        size = len(blob)

        async def aget(self, offset, length):
            return blob[offset : offset + length], 99

    async def body(loop):
        wire = FaultInjector(plan).tamper("shard", _Transport())
        got = []
        for offset, length in reads:
            try:
                data, crc = await wire.aget(offset, length)
            except RemoteSourceError as exc:
                got.append((type(exc), str(exc), loop.time()))
            else:
                assert crc == 99  # forwarded untouched: the CRC gate's job
                got.append((data, loop.time()))
        return got

    assert _run(body) == expected
    assert [len(o) for o in expected].count(3) == 2  # raise, stall
    assert expected[1][0] == b"" and len(expected[3][0]) == 23  # short


# ------------------------------------------------- the byte-identity matrix


def _read(target, *, source=None, prefetch=None):
    """Full-fidelity read → ``(data bytes, bytes_loaded, consumed ranges)``.

    Remote cells leave ``prefetch`` alone: container or bare stream, the
    dataset then reads multiplexed — a header wave (bare stream or legacy
    layout only), then a payload burst.
    """
    with ChunkedDataset(target, source=source, prefetch=prefetch) as dataset:
        result = dataset.read()
    return result.data.tobytes(), result.bytes_loaded, result.ranges


_SERVER_FAULTS = (
    FaultPlan.every(4, kind="raise")
    + FaultPlan.every(5, kind="short")
    + FaultPlan.every(7, kind="corrupt")
)


@pytest.mark.parametrize(
    "condition", ["clean", "client-faults", "server-faults", "dead-primary"]
)
@pytest.mark.parametrize("version", ["v1", "v2"])
@pytest.mark.parametrize("kind", ["stream", "container"])
def test_identity_matrix_over_http(
    served_dir, server, replica, monkeypatch, version, kind, condition
):
    """{v1, v2} × {stream, container} × {clean, client faults, server faults,
    dead primary + replica}: data, ``bytes_loaded`` and consumed ranges over
    loopback HTTP equal the local serial read."""
    if condition != "clean":
        # Fault legs never sleep for real and never run out of ladder; the
        # dead primary is given up on at its first failure.
        monkeypatch.setattr(aio, "RETRIES", 0 if condition == "dead-primary" else 8)
        monkeypatch.setattr(remote, "BACKOFF", 0.0)
    name = f"{version}.ipc" if kind == "stream" else f"{version}.rprc"
    url = server.url_for(name)
    expected = _read(served_dir / name, prefetch=0)
    # Wire traffic of the leg (server-side count; the opening read is #1):
    # a fixture that fitted the opening window would make every leg vacuous.
    served, on_wire = server, server.range_requests

    if condition == "clean":
        stack = open_remote_source(url)
        assert _read(url, source=stack) == expected
        assert stack.stats()["retries"] == 0
    elif condition == "client-faults":
        # raise + short + corrupt on >= 20% of reads, injected below CRC
        # verification; the retry ladder heals every one.
        injector = FaultInjector(
            FaultPlan.every(3, kind="raise")
            + FaultPlan.every(5, kind="short")
            + FaultPlan.every(7, kind="corrupt")
        )
        stack = open_remote_source(url, tamper=injector.tamper)
        assert _read(url, source=stack) == expected
        stats = stack.stats()
        assert stats["retries"] >= 1
        assert injector.faults_injected / injector.total_reads >= 0.2
        assert stats["crc_mismatches"] >= 1  # short/corrupt caught by the CRC gate
    elif condition == "server-faults":
        # 500s, short bodies, corruption after the CRC is stamped: faults
        # the *server* injects heal exactly like client-side ones.
        with RangeServer(served_dir, plan=_SERVER_FAULTS) as faulty:
            served, on_wire = faulty, 0
            stack = open_remote_source(faulty.url_for(name))
            assert _read(faulty.url_for(name), source=stack) == expected
            assert stack.stats()["retries"] >= 1
            assert faulty.faults_served >= 1
    else:
        # The primary endpoint opens, then fails every read; the replica
        # serves them all.  (A primary already dead *at* open is dropped at
        # construction — test_dead_primary_at_open_fails_over_to_mirror.)
        injector = FaultInjector(FaultPlan.never())

        def tamper_primary(endpoint_url, transport):
            if endpoint_url == url:
                return injector.tamper(endpoint_url, transport)
            return transport

        stack = open_remote_source(url, [replica.url_for(name)], tamper=tamper_primary)
        injector.plan.rules.extend(FaultPlan.always(kind="raise").rules)
        served, on_wire = replica, replica.range_requests
        assert _read(url, source=stack) == expected
        stats = stack.stats()
        assert stats["failovers"] >= 1
        assert len(stats["breaker"]) == 2
    # At least a bare stream's three waves: its sniff, header and payload.
    assert served.range_requests - on_wire >= 3


# ------------------------------- one tower: every reader against the bare oracle

#: The probe's fidelity ladder, as multiples of the stored bound; the
#: one-shot readers ask for its first rung.
_LADDER = (100.0, 10.0, 1.0)


@pytest.fixture(scope="module")
def probe(tmp_path_factory) -> Path:
    """One field as a 4-shard archive and as a bare stream (≈ 280 KB each)."""
    root = tmp_path_factory.mktemp("probe")
    field = load_dataset("density", shape=(48, 56, 64))
    ChunkedDataset.write(
        root / "probe.rprc", field, error_bound=1e-5, relative=True, n_blocks=4, workers=0
    )
    (root / "probe.ipc").write_bytes(
        IPComp(error_bound=1e-5, relative=True).compress(field)
    )
    return root


def _oracle(path: Path):
    """Per rung ``(data bytes, bytes_loaded, sorted ranges)`` from one bare
    stateful ``ProgressiveRetriever(blob)`` per shard — no dataset, engine,
    prime cache or service between the retriever and the bytes."""
    with BlockContainerReader(path) as reader:
        blobs = {name: reader.read_block(name) for name in reader.block_names()}
    manifest = json.loads(blobs.pop("manifest")) if "manifest" in blobs else None
    blobs.pop("headers", None)  # the shards' header copies, not a shard
    retrievers = {name: ProgressiveRetriever(blob) for name, blob in blobs.items()}
    stored = max(r.header.error_bound for r in retrievers.values())
    rungs, starts = [], dict.fromkeys(retrievers, 0)
    for factor in _LADDER:
        results = {n: r.retrieve(error_bound=factor * stored) for n, r in retrievers.items()}
        ranges = sorted(
            (n, offset, length)
            for n, r in retrievers.items()
            for offset, length in r.store.trace[starts[n]:]
        )
        starts = {n: len(r.store.trace) for n, r in retrievers.items()}
        if manifest is None:
            (data,) = (result.data for result in results.values())
        else:
            data = np.empty(manifest["shape"], dtype=manifest["dtype"])
            for shard in manifest["shards"]:
                data[tuple(slice(a, b) for a, b in shard["slices"])] = results[shard["name"]].data
        loaded = sum(result.bytes_loaded for result in results.values())
        rungs.append((data.tobytes(), loaded, ranges))
    return stored, rungs


def _receipt(result):
    return result.data.tobytes(), result.bytes_loaded, sorted(result.ranges)


@pytest.mark.parametrize("reader", ["read", "refine", "service", "cli"])
@pytest.mark.parametrize("name", ["probe.rprc", "probe.ipc"])
@pytest.mark.parametrize("where", ["local", "http"])
def test_one_tower_identity_matrix(probe, tmp_path, where, name, reader):
    """{local file, http} × {4-shard container, bare stream} × {read, refine
    ladder, service, CLI}: data, ``bytes_loaded`` and sorted ranges equal the
    per-shard bare-retriever oracle — one source tower behind them all."""
    stored, rungs = _oracle(probe / name)
    shards = len({shard for shard, _, _ in rungs[0][2]})
    with RangeServer(probe) as srv:
        target = srv.url_for(name) if where == "http" else probe / name
        if reader == "read":
            with ChunkedDataset(target) as dataset:
                assert _receipt(dataset.read(error_bound=_LADDER[0] * stored)) == rungs[0]
        elif reader == "refine":
            with ChunkedDataset(target) as dataset:
                steps = [dataset.refine(error_bound=f * stored) for f in _LADDER]
            assert [_receipt(step) for step in steps] == rungs
        elif reader == "service":
            with RetrievalService() as service:
                response = service.get(target, error_bound=_LADDER[0] * stored)
            trace = response.trace
            assert (response.data.tobytes(), trace.bytes_loaded, sorted(trace.ranges)) == rungs[0]
            # Cold and remote: the open (and a stream's sniff), then (a bare
            # stream's) header prime and one payload burst (≤ a pool of GETs)
            # per shard — not a round trip per plane block (859 requests
            # before 7.0).
            assert srv.range_requests <= 2 + (1 + CONNECTIONS) * shards
        else:
            out, receipt = tmp_path / "out.raw", tmp_path / "receipt.json"
            assert main([
                "retrieve", str(target), "-o", str(out), "--trace-json", str(receipt),
                "--error-bound", repr(_LADDER[0] * stored),
            ]) == 0
            # The CLI prints no ranges; its receipt carries the byte count.
            loaded = json.loads(receipt.read_text())["bytes_loaded"]
            assert (out.read_bytes(), loaded) == rungs[0][:2]
        assert (srv.range_requests > 0) == (where == "http")


def test_remote_refine_leaves_no_background_read(probe):
    """A remote ``refine()`` reads what it plans and nothing more: once it
    returns and the loop settles, the stack sends and receives nothing (no
    read of a rung nobody asked for), and the remote ladder is bitwise the
    local one, with identical ranges."""
    path = probe / "probe.rprc"
    with ChunkedDataset(path) as local:
        stored = local.absolute_bound
        want = [local.refine(error_bound=f * stored) for f in _LADDER]
    # 50 ms per read: a background GET would still be on the wire on return.
    slow = FaultInjector(FaultPlan.always("latency", seconds=0.05))
    with RangeServer(probe) as srv:
        stack = open_remote_source(srv.url_for("probe.rprc"), tamper=slow.tamper)
        with ChunkedDataset(srv.url_for("probe.rprc"), source=stack) as dataset:
            for expected, factor in zip(want, _LADDER):
                got = dataset.refine(error_bound=factor * stored)
                wire = {key: stack.stats()[key] for key in ("requests", "egress_bytes")}
                time.sleep(0.3)  # anything still queued on the loop lands
                assert {key: stack.stats()[key] for key in wire} == wire
                assert got.data.tobytes() == expected.data.tobytes()
                assert got.bytes_loaded == expected.bytes_loaded
                assert got.ranges == expected.ranges


def test_info_of_a_remote_stream_transfers_a_header_not_the_object(probe, capsys):
    """``ipcomp info URL`` of a bare stream: the opening window, the stream
    sniff and one header prime — it used to download the whole object."""
    with RangeServer(probe) as srv:
        assert main(["info", srv.url_for("probe.ipc"), "--error-bound", "1e-3"]) == 0
        assert srv.bytes_sent <= OPENING_WINDOW + DEFAULT_HEADER_PRIME + 1024
    report = json.loads(capsys.readouterr().out)
    assert report["shape"] == [48, 56, 64] and report["retrieval_plan"]["ops"] >= 1
    assert (probe / "probe.ipc").stat().st_size > 3 * OPENING_WINDOW


@pytest.mark.parametrize("name", ["probe.rprc", "probe.ipc"])
def test_decompress_url_writes_the_local_bytes(probe, tmp_path, capsys, name):
    """``ipcomp decompress URL`` keeps the URL verbatim (a ``Path`` collapsed
    ``http://`` to ``http:/``) and writes what ``decompress FILE`` writes."""
    local, remote = tmp_path / "local.raw", tmp_path / "remote.raw"
    assert main(["decompress", str(probe / name), "-o", str(local)]) == 0
    with RangeServer(probe) as srv:
        assert main(["decompress", srv.url_for(name), "-o", str(remote)]) == 0
        assert srv.range_requests > 0
    assert remote.read_bytes() == local.read_bytes()
    capsys.readouterr()


def test_bad_read_knob_on_a_url_is_an_error_and_closes_the_stack(server, tmp_path, capsys):
    """``ChunkedDataset`` validates ``prefetch`` and owns the remote stack
    handed to it even when it refuses it (``leak_ledger`` checks the
    stack's connections are gone)."""
    assert main(["retrieve", server.url_for("v2.rprc"), "-o", str(tmp_path / "x"),
                 "--error-bound", "1e-3", "--prefetch", "-1"]) == 2
    assert "error: prefetch must be" in capsys.readouterr().err


def test_dead_primary_at_open_fails_over_to_mirror(served_dir, server, monkeypatch):
    """An endpoint that is down when the stack is built is dropped; only
    every endpoint failing propagates."""
    monkeypatch.setattr(aio, "RETRIES", 2)
    monkeypatch.setattr(remote, "BACKOFF", 0.0)
    blob = (served_dir / "v2.rprc").read_bytes()
    dead = "http://127.0.0.1:1/v2.rprc"
    stack = open_remote_source(dead, [server.url_for("v2.rprc")])
    try:
        assert stack.read_range(0, 16) == blob[:16]
    finally:
        stack.close()
    with pytest.raises((RemoteSourceError, OSError)):
        open_remote_source(dead, ["http://127.0.0.1:1/other"])
    # Reachable but failing its opening read on every retry: dropped too,
    # its connections closed, and the replica's window serves the tail.
    url = server.url_for("v2.rprc")
    injector = FaultInjector(FaultPlan.always(kind="raise"))
    with RangeServer(served_dir) as mirror:
        with open_remote_source(
            url, [mirror.url_for("v2.rprc")],
            tamper=lambda endpoint, t: injector.tamper(endpoint, t) if endpoint == url else t,
        ) as stack:
            assert injector.total_reads == 3  # the opening read and its retries
            assert list(stack.stats()["breaker"]) == [f"{mirror.host}:{mirror.port}"]
            assert stack.read_range(len(blob) - 64, 64) == blob[-64:]
            assert mirror.range_requests == 1  # ... from memory


class _CannedReplyServer:
    """A raw loopback socket answering every request with one fixed reply,
    then closing the connection — a server no HTTP library would write."""

    def __init__(self, reply: bytes) -> None:
        self._reply = reply
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}/v2.rprc"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _address = self._listener.accept()
            except socket.timeout:
                continue
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    request += chunk
                conn.sendall(self._reply)

    def __enter__(self) -> "_CannedReplyServer":
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._listener.close()


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 206 Partial Content\r\nContent-Range: bytes 0-9/10\r\n"
        b"Content-Length: abc\r\n\r\n",
        b"HTTP/1.1 206 Partial Content\r\nContent-Range: bytes 0-9/10\r\n"
        b"Content-Length: -1\r\n\r\n",
    ],
    ids=["status", "length-text", "length-negative"],
)
def test_malformed_reply_is_a_remote_source_error(served_dir, server, monkeypatch, reply):
    """A reply the client cannot frame is a transport failure: the open
    raises :class:`RemoteSourceError` naming the bad field (retried, fed to
    the breaker, its connection closed), and beside a healthy mirror the
    stack fails over and reads the local bytes."""
    monkeypatch.setattr(remote, "BACKOFF", 0.0)
    with _CannedReplyServer(reply) as bad:
        with pytest.raises(RemoteSourceError, match="status line|Content-Length"):
            open_remote_source(bad.url)
        stack = open_remote_source(bad.url, [server.url_for("v2.rprc")])
        with ChunkedDataset(bad.url, source=stack) as remote_dataset:
            got = remote_dataset.read().data
    with ChunkedDataset(served_dir / "v2.rprc") as local:
        assert np.array_equal(got, local.read().data)


#: Every key of a remote stack's ``stats()`` and of each ``mirrors[]``
#: entry: CLI receipts, the CI remote smoke, service traces and the e2e
#: benchmark's layer counters read them.
_STACK_STATS_KEYS = {
    "requests", "egress_bytes", "connections_opened", "inflight_max", "breaker",
    "retries", "crc_verified", "crc_mismatches", "failovers", "hedges",
    "hedge_wins", "hedge_cancelled", "hedge_wasted_bytes", "mirrors",
}
_MIRROR_STATS_KEYS = {"label", "failures", "latency_ewma_s", "reads"}


def test_remote_stack_stats_keep_their_keys(server, replica):
    primary, mirror = server.url_for("v2.rprc"), replica.url_for("v2.rprc")
    for mirrors in ((), (mirror,)):
        with open_remote_source(primary, mirrors) as stack:
            stack.read_range(0, 16)
            stats = stack.stats()
        assert set(stats) == _STACK_STATS_KEYS
        assert [entry["label"] for entry in stats["mirrors"]] == [primary, *mirrors]
        assert all(set(entry) == _MIRROR_STATS_KEYS for entry in stats["mirrors"])
        assert len(stats["breaker"]) == 1 + len(mirrors)


# ---------------------------------------------- faults on the opening read


@pytest.mark.parametrize("kind", ["corrupt", "short", "raise"])
@pytest.mark.parametrize("side", ["client", "server"])
def test_faulted_opening_read_is_caught_and_healed(served_dir, monkeypatch, side, kind):
    """Request #1 of a stack is its opening read, and it climbs the ladder:
    a corrupted or truncated window is stopped by the CRC gate, a failed
    one retried, before anything is parsed from it."""
    monkeypatch.setattr(remote, "BACKOFF", 0.0)
    blob = (served_dir / "v2.rprc").read_bytes()
    plan = FaultPlan.at({1}, kind=kind)
    injector = FaultInjector(plan if side == "client" else FaultPlan.never())
    with RangeServer(served_dir, plan=plan if side == "server" else None) as srv:
        with open_remote_source(srv.url_for("v2.rprc"), tamper=injector.tamper) as stack:
            stats = stack.stats()
            assert stack.size == len(blob)
            assert stats["retries"] == 1
            # A server-side short body under-runs Content-Length (transport
            # error); a client-side one is only visible to the CRC gate.
            assert stats["crc_mismatches"] == (
                kind == "corrupt" or (side, kind) == ("client", "short")
            )
            # The faulted opening read and its retry (an injected client-side
            # failure never reaches the server).
            on_wire = 1 if (side, kind) == ("client", "raise") else 2
            assert srv.range_requests == on_wire
            # The healed window is the true tail, and parses.
            assert stack.read_range(len(blob) - 12, 12) == blob[-12:]
            with BlockContainerReader(_Unowned(stack)) as reader:
                assert "manifest" in reader.directory
            assert srv.range_requests == on_wire


def test_opening_read_out_of_retries_fails_the_open(served_dir, settles, monkeypatch):
    monkeypatch.setattr(aio, "RETRIES", 2)
    monkeypatch.setattr(remote, "BACKOFF", 0.0)
    injector = FaultInjector(FaultPlan.always(kind="corrupt"))
    with RangeServer(served_dir) as srv:
        with pytest.raises(RemoteIntegrityError):
            open_remote_source(srv.url_for("v2.rprc"), tamper=injector.tamper)
        assert injector.total_reads == 3 and srv.range_requests == 3
        assert settles(lambda: srv.open_connections == 0)  # nothing left open


# ------------------------------------------------- what the window is trusted for


def _retail(blob: bytes, footer_len=None, magic=b"RPRC") -> bytes:
    """``blob`` with a rewritten 12-byte container tail word."""
    if footer_len is None:
        footer_len = struct.unpack("<Q", blob[-12:-4])[0]
    return blob[:-12] + struct.pack("<Q", footer_len) + magic


@pytest.mark.parametrize(
    "case, match, requests",
    [
        # Neither tail magic nor stream magic: one more read, of the head.
        ("bad-magic", "not a repro block container", 2),
        ("footer-past-file", "truncated container footer", 1),
        # Inside the file but before the window: the footer read falls
        # through to the wire and finds payload bytes, not JSON.
        ("footer-past-window", "corrupted container footer", 2),
        ("truncated-manifest", "malformed dataset manifest", 1),
    ],
)
def test_hostile_opening_window_raises_format_error(
    served_dir, tmp_path, settles, case, match, requests
):
    """The window is untrusted input like any other read: a lying tail word
    or a cut manifest raises ``StreamFormatError`` — no hang, no retry storm,
    no byte requested beyond the object's real size."""
    blob = (served_dir / "v2.rprc").read_bytes()
    if case == "bad-magic":
        hostile = b"XXXX" + _retail(blob, magic=b"XXXX")[4:]
    elif case == "footer-past-file":
        hostile = _retail(blob, footer_len=1 << 40)
    elif case == "footer-past-window":
        hostile = _retail(blob, footer_len=OPENING_WINDOW + 4096)
    else:
        with BlockContainerReader(served_dir / "v2.rprc") as reader:
            blocks = {name: reader.read_block(name) for name in reader.block_names()}
        with BlockContainerWriter(tmp_path / "hostile.rprc") as writer:
            for name, data in blocks.items():
                writer.add_block(name, data[: len(data) // 2] if name == "manifest" else data)
        hostile = (tmp_path / "hostile.rprc").read_bytes()
    (tmp_path / "hostile.rprc").write_bytes(hostile)
    assert len(hostile) > 2 * OPENING_WINDOW
    with RangeServer(tmp_path) as srv:
        with pytest.raises(StreamFormatError, match=match):
            ChunkedDataset(srv.url_for("hostile.rprc"))
        assert srv.range_requests == requests
        assert srv.bytes_sent <= len(hostile)
        assert settles(lambda: srv.open_connections == 0)


def test_footer_larger_than_the_window_falls_through(tmp_path):
    """Nothing special-cases a big archive: reads that start before the
    window simply go to the wire, as every read did before there was one."""
    path = tmp_path / "wide.rprc"
    with BlockContainerWriter(path) as writer:
        for index in range(1500):
            writer.add_block(f"a-block-with-quite-a-long-name-{index:05d}", bytes([index % 251]) * 7)
    blob = path.read_bytes()
    with BlockContainerReader(path) as local:
        directory = local.directory
    assert struct.unpack("<Q", blob[-12:-4])[0] > OPENING_WINDOW
    with RangeServer(tmp_path) as srv:
        with BlockContainerReader(open_remote_source(srv.url_for("wide.rprc"))) as reader:
            assert reader.directory == directory
            assert srv.range_requests == 2  # the opening read, then the footer
            name = "a-block-with-quite-a-long-name-00700"
            assert reader.read_block(name) == bytes([700 % 251]) * 7


@pytest.mark.parametrize("same_size", [True, False])
def test_revalidation_hits_the_wire_and_sees_a_replaced_object(tmp_path, same_size):
    """A session's first fingerprint comes out of the opening window; every
    later one is a request, answered about the object the server holds now."""
    path = tmp_path / "obj.bin"
    old = bytes(range(256)) * 40
    path.write_bytes(old)
    with RangeServer(tmp_path) as srv, open_remote_source(srv.url_for("obj.bin")) as stack:
        first = remote_fingerprint(stack)
        assert srv.range_requests == 1  # the opening read only
        assert remote_fingerprint(stack, revalidate=True) == first
        assert srv.range_requests == 2
        path.write_bytes(old[:-1] + b"\x00" if same_size else old + b"tail")
        assert remote_fingerprint(stack) == first  # the stale window: never for freshness
        changed = remote_fingerprint(stack, revalidate=True)
        assert srv.range_requests == 3
        assert changed != first and (changed[0] == first[0]) == same_size


class _Unowned:
    """Lends a source to a reader that would otherwise close it."""

    def __init__(self, source):
        self._source = source
        self.size = source.size
        self.read_range = source.read_range


def test_server_side_fault_plan_is_healed_by_the_client(served_dir, patient):
    """Chunked reads sweep the server's per-range fault counter past every
    rule of the plan (a short object's full read could dodge some)."""
    blob = (served_dir / "v2.rprc").read_bytes()
    with RangeServer(served_dir, plan=_SERVER_FAULTS) as faulty:
        stack = open_remote_source(faulty.url_for("v2.rprc"))
        try:
            step = max(1, stack.size // 16)
            got = b"".join(
                stack.read_range(offset, min(step, stack.size - offset))
                for offset in range(0, stack.size, step)
            )
            assert got == blob
            assert stack.stats()["retries"] >= 1
            assert faulty.faults_served >= 3
        finally:
            stack.close()


# ------------------------------------------------------------- policy rows


def test_long_lived_stack_keeps_serving_a_flaky_link(served_dir, server, monkeypatch):
    """The client drops every 4th read; one stack serves 400 reads.  Every
    read heals, and every drop costs exactly one retry.  (A retry budget of
    32 per stack, never refilled, served 324: nothing retried after read 98.)"""
    monkeypatch.setattr(remote, "BACKOFF", 0.0)
    blob = (served_dir / "v2.rprc").read_bytes()
    injector = FaultInjector(FaultPlan.every(4, kind="raise"))
    served = 0
    with open_remote_source(server.url_for("v2.rprc"), tamper=injector.tamper) as stack:
        for index in range(400):
            offset = index * 16  # all outside the opening window
            try:
                served += stack.read_range(offset, 16) == blob[offset : offset + 16]
            except RemoteSourceError:
                pass
        stats = stack.stats()
    assert served == 400
    assert stats["retries"] == injector.faults_injected == 133


def test_dying_backend_is_cut_off_by_its_breaker(served_dir):
    """The backend answers the opening read, then only 500s.  At the default
    backoff, 60 reads cost the five failures that open the breaker and well
    under a second: every later read fails fast, and is not retried.
    (Retrying circuit-open rejections cost 8 requests and 2.75 s; without
    the breaker, 93 requests.)"""
    plan = FaultPlan.never()
    with RangeServer(served_dir, plan=plan) as dying:
        with open_remote_source(dying.url_for("v2.rprc")) as stack:
            plan.rules.extend(FaultPlan.always(kind="raise").rules)
            began = time.perf_counter()
            for index in range(60):
                with pytest.raises(RemoteSourceError):
                    stack.read_range(index * 16, 16)
            elapsed = time.perf_counter() - began
            assert stack.stats()["breaker"] == {f"{dying.host}:{dying.port}": "open"}
        assert dying.range_requests <= 1 + 5
    assert elapsed < 1.0


# --------------------------------------------------------- service over HTTP


def test_service_over_url_warm_repeat_and_remote_trace(served_dir, server):
    url = server.url_for("v2.rprc")
    with ChunkedDataset(served_dir / "v2.rprc") as dataset:
        oracle = dataset.read()
    with RetrievalService() as service:
        response = service.get(url)
        assert np.array_equal(response.data, oracle.data)
        assert response.trace.bytes_loaded == oracle.bytes_loaded
        assert response.trace.remote and response.trace.egress_bytes > 0
        assert response.trace.breaker_states  # endpoint state snapshot
        on_wire = server.range_requests
        warm = service.get(url)
        assert np.array_equal(warm.data, oracle.data)
        assert warm.trace.physical_reads == 0
        assert server.range_requests == on_wire + 1  # the revalidation probe
        stats = service.stats()
        assert stats["remote_requests"] == 2
        assert stats["egress_bytes"] >= response.trace.egress_bytes


@pytest.mark.parametrize("name, kind", [("v2.rprc", "container"), ("v2.ipc", "stream")])
def test_service_session_opens_in_one_request(served_dir, name, kind):
    """Fingerprint, tail word, footer and manifest all come out of the
    opening read; a stream session then sniffs its head and reads its
    header (one primed wave)."""
    with RangeServer(served_dir) as srv, RetrievalService() as service:
        session = service._session(srv.url_for(name))
        assert (session.dataset.manifest is None) == (kind == "stream")
        assert srv.range_requests == (1 if kind == "container" else 3)
        blob = (served_dir / name).read_bytes()
        assert session.fingerprint == (len(blob), 0, zlib.crc32(blob[-4096:]))
        # The same session again: one revalidation probe, on the wire.
        before = srv.range_requests
        assert service._session(srv.url_for(name)) is session
        assert srv.range_requests == before + 1


def test_service_remote_failure_degrades_to_resident(served_dir, server, monkeypatch):
    """A degraded ``get`` over a URL: answered from the resident coarse
    slab, with one freshness probe on the wire — its session's, not a second
    one sent right after the backend failed."""
    monkeypatch.setattr(aio, "RETRIES", 0)
    monkeypatch.setattr(service_mod, "RETRIES", 0)
    url = server.url_for("v2.rprc")
    poison = set()
    injector = FaultInjector(FaultPlan.at(poison))
    options = dict(tamper=injector.tamper)
    with RetrievalService(remote_options=options) as service:
        with ChunkedDataset(served_dir / "v2.rprc") as dataset:
            stored = dataset.absolute_bound
        coarse = service.get(url, error_bound=stored * 16)
        assert not coarse.trace.degraded
        # Every future remote read fails: the finer request cannot refine,
        # so it degrades to the resident coarse slab instead of erroring.
        injector.plan.rules.extend(FaultPlan.always(kind="raise").rules)
        checks = []
        is_fresh = service_mod._Session.is_fresh
        monkeypatch.setattr(
            service_mod._Session, "is_fresh",
            lambda session: checks.append(session) or is_fresh(session),
        )
        refined = service.get(url, error_bound=stored)
        assert refined.trace.degraded
        assert refined.trace.achieved_bound <= stored * 16
        assert service.stats()["degraded"] == 1
        assert len(checks) == 1


def test_a_remote_freshness_probe_never_stalls_another_session(tmp_path):
    """A URL session's freshness probe is a ranged GET: it runs outside the
    service lock, so a warm local request started beside a slow probe is
    served at once instead of waiting the probe out."""
    path = tmp_path / "data.rprc"
    ChunkedDataset.write(
        path, cumsum_field((24, 28, 32), 7), error_bound=1e-4, relative=True,
        n_blocks=4, workers=0,
    )
    slow = FaultPlan.never()
    with RangeServer(tmp_path, plan=slow) as srv, RetrievalService() as service:
        url = srv.url_for("data.rprc")
        service.get(url)
        service.get(path)
        slow.rules.extend(FaultPlan.always("latency", seconds=0.5).rules)
        answers = []
        remote = threading.Thread(target=lambda: answers.append(service.get(url)))
        remote.start()
        time.sleep(0.02)
        began = time.perf_counter()
        local = service.get(path)
        elapsed = time.perf_counter() - began
        remote.join(timeout=10)
        assert not remote.is_alive()
    assert elapsed < 0.1
    assert local.trace.physical_reads == 0
    assert len(answers) == 1 and np.array_equal(answers[0].data, local.data)


def test_opening_a_remote_session_never_stalls_another_session(tmp_path):
    """A fresh URL's opening read runs outside the service lock: a warm
    local request started while that read is held is served at once."""
    path = tmp_path / "data.rprc"
    ChunkedDataset.write(
        path, cumsum_field((24, 28, 32), 7), error_bound=1e-4, relative=True,
        n_blocks=4, workers=0,
    )
    slow = FaultPlan.always("latency", seconds=0.5)
    with RangeServer(tmp_path, plan=slow) as srv, RetrievalService() as service:
        service.get(path)
        answers = []
        remote = threading.Thread(
            target=lambda: answers.append(service.get(srv.url_for("data.rprc")))
        )
        remote.start()
        time.sleep(0.02)
        began = time.perf_counter()
        local = service.get(path)
        elapsed = time.perf_counter() - began
        remote.join(timeout=30)
        assert not remote.is_alive()
    assert elapsed < 0.1
    assert local.trace.physical_reads == 0
    assert len(answers) == 1 and np.array_equal(answers[0].data, local.data)


def test_racing_first_opens_of_one_url_keep_one_session(tmp_path, monkeypatch):
    """Two first requests of one URL race: one opens the stack outside the
    service lock while the other waits for it — one stack opened, none
    closed, both answer alike."""
    path = tmp_path / "data.rprc"
    ChunkedDataset.write(
        path, cumsum_field((12, 10, 8), 5), error_bound=1e-4, relative=True,
        n_blocks=2, workers=0,
    )
    stacks, closed = [], []
    open_stack = service_mod.open_remote_source

    def opening(url, **options):
        time.sleep(0.2)  # the other racer arrives while this open runs
        stack = open_stack(url, **options)
        close = stack.close
        stack.close = lambda: (closed.append(stack), close())
        stacks.append(stack)
        return stack

    monkeypatch.setattr(service_mod, "open_remote_source", opening)
    with RangeServer(tmp_path) as srv, RetrievalService() as service:
        url = srv.url_for("data.rprc")
        answers = []
        both = threading.Barrier(2)

        def racer():
            both.wait(timeout=5)
            answers.append(service.get(url))

        racers = [threading.Thread(target=racer) for _ in range(2)]
        for thread in racers:
            thread.start()
        for thread in racers:
            thread.join(timeout=30)
        assert len(service._sessions) == 1
        assert stacks == [service._sessions[url].remote_source] and closed == []
    assert len(answers) == 2 and np.array_equal(answers[0].data, answers[1].data)


def test_service_remote_fingerprint_change_purges_session(tmp_path):
    path = tmp_path / "data.rprc"
    ChunkedDataset.write(
        path, cumsum_field((12, 10, 8), 5), error_bound=1e-4, relative=True,
        n_blocks=2, workers=0,
    )
    with RangeServer(tmp_path) as srv, RetrievalService() as service:
        url = srv.url_for("data.rprc")
        first = service.get(url)
        # Replace the served object in place: same URL, different bytes.
        ChunkedDataset.write(
            path, cumsum_field((12, 10, 8), 6), error_bound=1e-4, relative=True,
            n_blocks=2, workers=0,
        )
        with ChunkedDataset(path) as dataset:
            oracle = dataset.read()
        fresh = service.get(url)
        assert np.array_equal(fresh.data, oracle.data)
        assert not np.array_equal(fresh.data, first.data)
        assert fresh.trace.physical_reads > 0


@pytest.fixture(scope="module")
def eight_shards(tmp_path_factory) -> Path:
    """An 8-shard archive whose first shard lies outside the opening window."""
    root = tmp_path_factory.mktemp("eight")
    ChunkedDataset.write(
        root / "eight.rprc", cumsum_field((64, 48, 40), 4), error_bound=1e-6,
        relative=True, n_blocks=8, workers=0,
    )
    return root


def test_a_deadline_belongs_to_its_request(eight_shards, settles):
    """Request A (a full read, no deadline) and request B (a small ROI whose
    deadline has already passed) share one URL session, 80 ms per read.  B
    arrives while A reads shard 0 and waits on it, so B's deadline is live
    through A's reads of that shard — and fails only B's own: A returns
    bitwise the local read with no retry, B raises or degrades.  (With the
    deadline kept on the shared stack, A raised "request deadline
    exceeded".)"""
    path = eight_shards / "eight.rprc"
    with ChunkedDataset(path) as local:
        oracle = local.read()
        stored = local.absolute_bound
        first = local.shards[0].slices
    roi = (slice(first[0].start, first[0].start + 4),) + tuple(first[1:])
    # The latency sits below the CRC gate; the freshness probe bypasses it.
    slow = FaultInjector(FaultPlan.always("latency", seconds=0.08))
    answers = {}

    def request(name, **kwargs):
        try:
            answers[name] = service.get(url, **kwargs)
        except RemoteSourceError as exc:
            answers[name] = exc

    with RangeServer(eight_shards) as srv, RetrievalService(
        remote_options=dict(tamper=slow.tamper)
    ) as service:
        url = srv.url_for("eight.rprc")
        a = threading.Thread(target=request, args=("A",))
        a.start()
        # A opens the session, then holds shard 0 for its 80 ms header read.
        assert settles(lambda: url in service._sessions)
        time.sleep(0.02)
        request("B", error_bound=64 * stored, roi=roi, deadline=time.monotonic() - 1.0)
        a.join()
    assert not isinstance(answers["A"], Exception), answers["A"]
    assert answers["A"].data.tobytes() == oracle.data.tobytes()
    assert answers["A"].trace.retries == 0
    assert isinstance(answers["B"], RemoteSourceError) or answers["B"].trace.degraded


def test_scheduler_serves_urls_with_deadlines(served_dir, server):
    from repro.service.scheduler import RequestScheduler

    url = server.url_for("v2.rprc")
    with ChunkedDataset(served_dir / "v2.rprc") as dataset:
        oracle = dataset.read()
    with RetrievalService() as service:
        with RequestScheduler(service, max_inflight=2) as scheduler:
            handle = scheduler.submit(url, timeout=30.0)
            response = handle.refined(timeout=30.0)
            assert np.array_equal(response.data, oracle.data)
            assert response.trace.remote


# ------------------------------------------------------ prefetch interaction


class _FirstPrimeDies:
    """In-memory async-capable source whose first (primed) read fails."""

    supports_async = True

    def __init__(self, payload: bytes, delay: float = 0.0) -> None:
        self.payload, self.delay, self.size, self.calls = payload, delay, len(payload), 0

    def read_range(self, offset, length):
        self.calls += 1
        return self.payload[offset : offset + length]

    async def aread_range(self, offset, length):
        self.calls += 1
        await asyncio.sleep(self.delay)
        raise RemoteSourceError("speculative prime dies")


def test_failed_prime_is_refunded_and_never_fatal(settles):
    payload = bytes(range(200))
    for delay in (0.02, 0.0):  # the consumer waits on the prime, or finds it failed
        inner = _FirstPrimeDies(payload, delay=delay)
        prefetcher = AsyncPrefetcher()
        try:
            source = PrefetchSource(inner, prefetcher)
            assert source.prime([(0, 50)]) == 50
            if not delay:
                assert settles(lambda: source.inflight == 0)
            # The consuming read hits the failed prime and degrades to a
            # direct synchronous read — never fatal.
            assert source.read_range(0, 50) == payload[:50]
            assert inner.calls == 2
            # The failed prime is dropped with its one consumer: a later
            # read of the range, or a re-prime of it, starts afresh.
            assert source.read_range(0, 50) == payload[:50] and inner.calls == 3
            assert source.prime([(0, 50)]) == 50
        finally:
            prefetcher.close()


# ------------------------------------------------------ short-read hardening


def test_file_source_truncation_names_the_offset(tmp_path):
    """A bare stream file (the reader's one block) truncated behind the
    open handle: the short read names the block and the offset."""
    path = tmp_path / "stream.ipc"
    path.write_bytes(b"IPC1" + bytes(99_996))  # well past the handle's buffer
    with BlockContainerReader(path) as reader:
        path.write_bytes(b"IPC1" + bytes(59_996))  # truncate behind the open handle
        with pytest.raises(
            StreamFormatError,
            match=r"inside block 'stream' \(block offset 50000\): "
            r"wanted 30000 B at offset 50000, got 10000",
        ):
            reader.source("stream").read_range(50_000, 30_000)


def test_container_truncation_names_the_offset(tmp_path):
    path = tmp_path / "c.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("blk", bytes(range(100)))
    blob = path.read_bytes()

    class _Truncated:
        """Claims the full size but cannot serve the tail."""

        def __init__(self, cut):
            self.blob = blob[:cut]
            self.size = len(blob)

        def read_range(self, offset, length):
            return self.blob[offset : offset + length]

    with pytest.raises(StreamFormatError, match=r"wanted \d+ B at offset \d+"):
        BlockContainerReader(_Truncated(len(blob) - 4))
    # Truncation inside a block names the block and the in-block offset.
    reader = BlockContainerReader(path)
    try:
        reader._file_size = len(blob)  # footer parsed; now starve the data
        reader._source = _Truncated(40)
        reader._handle.close()
        reader._handle = None
        with pytest.raises(StreamFormatError, match=r"truncated inside block 'blk'"):
            reader.read_range("blk", 30, 40)
    finally:
        reader._source = None
        reader.close()
