"""The remote stack: transport, the one resilience ladder, mirrors, faults.

Four invariant families pin the remote layer (`repro.io.aio` +
`repro.io.remote` + `repro.io.faults` + `repro.io.rangeserver`):

* **transport** — ranged GETs over a loopback Range server return exactly
  the requested window (206 validated, Range-ignoring 200 sliced), size
  probing works, and CRC mismatches surface as
  :class:`~repro.errors.RemoteIntegrityError`, never as stream corruption;
* **resilience units** — circuit-breaker transitions, and the ladder's
  layer classes (CRC gate, retry budget + deadline, mirror health ranking
  and hedged-read accounting) driven through their duck-typed ``inner``
  by scripted coroutine fakes on a virtual-time event loop: backoffs and
  hedge thresholds advance the injected clock, nothing waits for real;
* **fault plans** — deterministic, JSON-round-trippable schedules that
  reproduce the old hand-rolled flaky-source idioms exactly;
* **byte identity** — {v1, v2} × {stream, container} retrieved over
  {clean HTTP, client faults on ≥20% of reads, server faults, a dead
  primary with a replica} equals the local serial read in data,
  ``bytes_loaded`` and consumed ranges, with the healing visible in the
  stack's stats.

NB: module-local data only — the conftest ``rng`` fixture is session-scoped
and shared (use ``local_rng`` in new tests that need randomness).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import ChunkedDataset, IPComp, ProgressiveRetriever
from repro.errors import (
    ConfigurationError,
    RemoteIntegrityError,
    RemoteSourceError,
    StreamFormatError,
)
from repro.io import BlockContainerWriter
from repro.io.aio import (
    AsyncHTTPTransport,
    EventLoopThread,
    _AsyncMirror,
    _AsyncRetry,
    _AsyncVerify,
    open_remote_source,
)
from repro.io.container import BlockContainerReader, FileSource
from repro.io.faults import FaultInjector, FaultPlan
from repro.io.rangeserver import RangeServer
from repro.io.remote import (
    CircuitBreaker,
    find_remote_source,
    is_url,
    jittered_backoff,
    remote_fingerprint,
)
from repro.retrieval.engine import open_stream_source
from repro.retrieval.prefetch import Prefetcher, PrefetchSource
from repro.service import RetrievalService

DATA = Path(__file__).parent / "data"

#: Fault-leg stacks never sleep for real and never run out of ladder.
_PATIENT = dict(retries=8, retry_budget=10_000, backoff=0.0)


def _field(shape, seed=0) -> np.ndarray:
    rng = np.random.default_rng(90210 + seed)
    base = rng.normal(size=shape)
    for axis in range(len(shape)):
        base = np.cumsum(base, axis=axis)
    return (base + 0.1 * rng.normal(size=shape)).astype(np.float64)


@pytest.fixture(scope="module")
def served_dir(tmp_path_factory) -> Path:
    """One directory holding the {v1, v2} × {stream, container} fixtures."""
    root = tmp_path_factory.mktemp("served")
    v1_blob = (DATA / "v1_stream.ipc").read_bytes()
    (root / "v1.ipc").write_bytes(v1_blob)
    v2_blob = IPComp(error_bound=1e-5, relative=True).compress(_field((20, 18), 3))
    (root / "v2.ipc").write_bytes(v2_blob)
    ChunkedDataset.write(
        root / "v2.rprc", _field((24, 14, 10), 4), error_bound=1e-5,
        relative=True, n_blocks=4, workers=0,
    )
    header_shape = np.load(DATA / "v1_expected.npy").shape
    n0 = header_shape[0]
    manifest = {
        "format": "repro-chunked-dataset",
        "version": 1,
        "shape": [2 * n0, header_shape[1]],
        "dtype": "float64",
        "error_bound": 3.292730916654546e-05,
        "method": "cubic",
        "prefix_bits": 2,
        "backend": "zlib",
        "shards": [
            {"name": "shard-0000", "slices": [[0, n0], [0, header_shape[1]]]},
            {"name": "shard-0001", "slices": [[n0, 2 * n0], [0, header_shape[1]]]},
        ],
    }
    with BlockContainerWriter(root / "v1.rprc") as writer:
        writer.add_block("shard-0000", v1_blob)
        writer.add_block("shard-0001", v1_blob)
        writer.add_block("manifest", json.dumps(manifest).encode())
    return root


@pytest.fixture(scope="module")
def server(served_dir) -> RangeServer:
    with RangeServer(served_dir) as srv:
        yield srv


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
    return EventLoopThread.shared().call(AsyncHTTPTransport(url).open())


def test_transport_reads_exact_windows(served_dir, server):
    blob = (served_dir / "v2.rprc").read_bytes()
    call = EventLoopThread.shared().call
    transport = _open_transport(server.url_for("v2.rprc"))
    try:
        assert transport.size == len(blob)
        data, crc = call(transport.aget(10, 33))
        assert data == blob[10:43]
        assert crc == zlib.crc32(data)  # the declared CRC rides the payload
        # Zero-length reads never touch the network.
        before = transport.n_requests
        assert call(transport.aget(5, 0)) == (b"", None)
        assert transport.n_requests == before
        with pytest.raises(StreamFormatError, match="past remote object end"):
            call(transport.aget(len(blob) - 2, 5))
        stats = transport.stats()
        assert stats["egress_bytes"] >= 33
        assert stats["breaker"] == {transport.endpoint: "closed"}
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


def test_missing_object_errors(server):
    with pytest.raises(RemoteSourceError):
        open_remote_source(server.url_for("no-such-file"))


def test_failed_container_open_closes_the_stack_it_opened(served_dir, settles):
    """``ChunkedDataset(url)`` on a non-container raises — and must not leave
    the stack it opened itself (unreachable by the caller) connected."""
    with RangeServer(served_dir) as srv:
        with pytest.raises(StreamFormatError):
            ChunkedDataset(srv.url_for("v2.ipc"))
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


def test_crc_gate_classifies_corruption():
    class _Inner:
        size = 5
        crc = None

        async def aget(self, offset, length):
            return b"hello"[offset : offset + length], self.crc

    async def body(_loop):
        inner = _Inner()
        verifying = _AsyncVerify(inner)
        inner.crc = zlib.crc32(b"hello")
        assert await verifying.aread_range(0, 5) == b"hello"
        assert verifying.verified == 1
        inner.crc = zlib.crc32(b"other")
        with pytest.raises(RemoteIntegrityError) as excinfo:
            await verifying.aread_range(0, 5)
        # Retryable (an OSError), and NOT stream corruption.
        assert isinstance(excinfo.value, OSError)
        assert not isinstance(excinfo.value, StreamFormatError)
        inner.crc = None
        assert await verifying.aread_range(0, 5) == b"hello"
        assert verifying.unverified == 1
        assert verifying.stats()["crc_mismatches"] == 1

    _run(body)


def test_circuit_breaker_transitions():
    clock = {"t": 0.0}
    breaker = CircuitBreaker(threshold=3, cooldown=5.0, clock=lambda: clock["t"])
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


def test_jittered_backoff_is_capped_deterministic():
    for attempt in (1, 2, 3):
        raw = min(1.0, 0.05 * 2.0 ** (attempt - 1))
        delay = jittered_backoff("k", attempt, 0.05, 1.0)
        assert 0.5 * raw <= delay <= raw
        assert delay == jittered_backoff("k", attempt, 0.05, 1.0)
    assert jittered_backoff("k", 1, 0.0, 1.0) == 0.0
    assert jittered_backoff("a", 2, 0.05, 1.0) != jittered_backoff("b", 2, 0.05, 1.0)


class _FailingSource:
    """Fails the first ``failures`` reads, then serves ``payload``."""

    def __init__(self, failures=10**9, payload=b"x" * 8):
        self.size = len(payload)
        self.payload = payload
        self.failures = failures
        self.calls = 0

    async def aread_range(self, offset, length):
        self.calls += 1
        if self.calls <= self.failures:
            raise RemoteSourceError(f"injected failure #{self.calls}")
        return self.payload[offset : offset + length]


def test_retry_ladder_heals_and_records_delays():
    async def body(loop):
        inner = _FailingSource(failures=2)
        source = _AsyncRetry(
            inner, retries=3, backoff=0.05, backoff_cap=1.0, label="L",
            clock=loop.time,
        )
        assert await source.aread_range(0, 8) == inner.payload
        assert inner.calls == 3 and source.retries_used == 2
        # The ladder slept exactly its recorded delays, nothing else.
        assert loop.time() == pytest.approx(sum(source.retry_delays))
        for attempt, delay in enumerate(source.retry_delays, start=1):
            assert delay == jittered_backoff("L@0", attempt, 0.05, 1.0)
        assert source.stats()["retries"] == 2

    _run(body)


def test_retry_budget_exhaustion_fails_fast():
    async def body(loop):
        inner = _FailingSource()
        source = _AsyncRetry(
            inner, retries=5, retry_budget=2, backoff=0.0, clock=loop.time
        )
        with pytest.raises(RemoteSourceError):
            await source.aread_range(0, 4)
        assert inner.calls == 3  # initial + the 2 budgeted retries
        with pytest.raises(RemoteSourceError):
            await source.aread_range(0, 4)
        assert inner.calls == 4  # budget empty: a single fail-fast attempt
        assert source.stats()["retry_budget_left"] == 0

    _run(body)


def test_deadline_expiry_mid_retry():
    async def body(loop):
        inner = _FailingSource()
        source = _AsyncRetry(
            inner, retries=5, backoff=0.05, label="x", clock=loop.time
        )
        # Expired before the read starts: fail fast, the backend is never hit.
        source.set_deadline(0.0)
        with pytest.raises(RemoteSourceError, match="deadline exceeded"):
            await source.aread_range(0, 4)
        assert inner.calls == 0
        # Mid-ladder: a backoff that would cross the deadline re-raises the
        # *underlying* error instead of sleeping past the deadline.
        source.set_deadline(0.06)
        with pytest.raises(RemoteSourceError, match="injected failure"):
            await source.aread_range(0, 4)
        # Attempt 1 backs off (< 0.06); attempt 2's delay >= 0.05 would cross.
        assert inner.calls == 2
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

    async def aread_range(self, offset, length):
        self.calls += 1
        try:
            if self.delay:
                await asyncio.sleep(self.delay)
        except asyncio.CancelledError:
            self.cancelled += 1
            raise
        if self.failing:
            raise RemoteSourceError("mirror down")
        return self.payload[offset : offset + length]


def test_mirror_failover_and_health_ranking():
    payload = bytes(range(64))

    async def body(loop):
        primary = _ScriptedMirror(payload, failing=True)
        backup = _ScriptedMirror(payload)
        mirror = _AsyncMirror([primary, backup], clock=loop.time)
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
        _AsyncMirror([_ScriptedMirror(b"abc"), _ScriptedMirror(b"abcd")])
    with pytest.raises(ConfigurationError):
        _AsyncMirror([])


def test_hedged_read_fires_and_cancels_the_loser():
    payload = bytes(range(32))

    async def body(loop):
        slow_primary = _ScriptedMirror(payload, delay=10.0)
        backup = _ScriptedMirror(payload)
        mirror = _AsyncMirror(
            [slow_primary, backup], hedge_delay=0.01, clock=loop.time
        )
        assert await mirror.aread_range(4, 16) == payload[4:20]
        # Answered at the hedge threshold, not after the primary's 10 s.
        assert loop.time() == pytest.approx(0.01)
        assert mirror.hedges == 1 and mirror.hedge_wins == 1
        # The loser was aborted on the wire: nothing wasted, nothing running.
        assert mirror.hedge_cancelled == 1 and slow_primary.cancelled == 1
        stats = mirror.stats()
        assert stats["hedges"] == 1 and stats["hedge_wasted_bytes"] == 0
        assert len(asyncio.all_tasks()) == 1  # only this test body
        # A fast primary never hedges.
        slow_primary.delay = 0.0
        assert await mirror.aread_range(0, 4) == payload[0:4]
        assert mirror.hedges == 1

    _run(body)


def test_hedge_loser_finishing_in_the_same_tick_is_accounted():
    payload = bytes(range(32))

    async def body(loop):
        # Hedge fires at 0.01; backup (0.01) and primary (0.02) both land at
        # 0.02 — the loser's bytes hit the wire for nothing and are counted,
        # never consumed.
        primary = _ScriptedMirror(payload, delay=0.02)
        backup = _ScriptedMirror(payload, delay=0.01)
        mirror = _AsyncMirror([primary, backup], hedge_delay=0.01, clock=loop.time)
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
        prefetch = PrefetchSource(stack)
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


# ------------------------------------------------- the byte-identity matrix


def _read(kind, target, *, source=None, prefetch=None):
    """Full-fidelity read → ``(data bytes, bytes_loaded, consumed ranges)``.

    Remote cells leave ``prefetch`` alone: a container then reads at the
    default depth (multiplexed), a bare stream serially — one wire read
    per plane block, which is what sweeps the fault plans.
    """
    if kind == "container":
        with ChunkedDataset(target, source=source, prefetch=prefetch) as dataset:
            result = dataset.read()
        return result.data.tobytes(), result.bytes_loaded, result.ranges
    opened = open_stream_source(target, prefetch=prefetch or 0, source=source)
    traced = opened if isinstance(opened, PrefetchSource) else PrefetchSource(opened)
    try:
        retriever = ProgressiveRetriever(traced)
        result = retriever.retrieve(error_bound=retriever.header.error_bound)
    finally:
        opened.close()
    return result.data.tobytes(), result.bytes_loaded, traced.trace


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
def test_identity_matrix_over_http(served_dir, server, replica, version, kind, condition):
    """{v1, v2} × {stream, container} × {clean, client faults, server faults,
    dead primary + replica}: data, ``bytes_loaded`` and consumed ranges over
    loopback HTTP equal the local serial read."""
    name = f"{version}.ipc" if kind == "stream" else f"{version}.rprc"
    url = server.url_for(name)
    expected = _read(kind, served_dir / name, prefetch=0)

    if condition == "clean":
        stack = open_remote_source(url)
        assert _read(kind, url, source=stack) == expected
        assert stack.stats()["retries"] == 0
    elif condition == "client-faults":
        # raise + short + corrupt on >= 20% of reads, injected below CRC
        # verification; the retry ladder heals every one.
        injector = FaultInjector(
            FaultPlan.every(3, kind="raise")
            + FaultPlan.every(5, kind="short")
            + FaultPlan.every(7, kind="corrupt")
        )
        stack = open_remote_source(url, tamper=injector.tamper, **_PATIENT)
        assert _read(kind, url, source=stack) == expected
        stats = stack.stats()
        assert stats["retries"] >= 1
        assert injector.faults_injected / injector.total_reads >= 0.2
        assert stats["crc_mismatches"] >= 1  # short/corrupt caught by the CRC gate
    elif condition == "server-faults":
        # 500s, short bodies, corruption after the CRC is stamped: faults
        # the *server* injects heal exactly like client-side ones.
        with RangeServer(served_dir, plan=_SERVER_FAULTS) as faulty:
            stack = open_remote_source(faulty.url_for(name), **_PATIENT)
            assert _read(kind, faulty.url_for(name), source=stack) == expected
            assert stack.stats()["retries"] >= 1
            assert faulty.faults_served >= 1
    else:
        # The primary endpoint fails every read; the replica serves them all.
        injector = FaultInjector(FaultPlan.always(kind="raise"))

        def tamper_primary(endpoint_url, transport):
            if endpoint_url == url:
                return injector.tamper(endpoint_url, transport)
            return transport

        stack = open_remote_source(
            url, [replica.url_for(name)], tamper=tamper_primary,
            retries=0, backoff=0.0,
        )
        assert _read(kind, url, source=stack) == expected
        stats = stack.stats()
        assert stats["failovers"] >= 1
        assert len(stats["breaker"]) == 2


def test_dead_primary_at_open_fails_over_to_mirror(served_dir, server):
    """An endpoint that is down when the stack is built is dropped; only
    every endpoint failing propagates."""
    blob = (served_dir / "v2.rprc").read_bytes()
    dead = "http://127.0.0.1:1/v2.rprc"
    stack = open_remote_source(dead, [server.url_for("v2.rprc")])
    try:
        assert stack.read_range(0, 16) == blob[:16]
    finally:
        stack.close()
    with pytest.raises((RemoteSourceError, OSError)):
        open_remote_source(dead, ["http://127.0.0.1:1/other"])


def test_server_side_fault_plan_is_healed_by_the_client(served_dir):
    """Chunked reads sweep the server's per-range fault counter past every
    rule of the plan (a short object's full read could dodge some)."""
    blob = (served_dir / "v2.rprc").read_bytes()
    with RangeServer(served_dir, plan=_SERVER_FAULTS) as faulty:
        stack = open_remote_source(faulty.url_for("v2.rprc"), **_PATIENT)
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
        warm = service.get(url)
        assert np.array_equal(warm.data, oracle.data)
        assert warm.trace.physical_reads == 0
        stats = service.stats()
        assert stats["remote_requests"] == 2
        assert stats["egress_bytes"] >= response.trace.egress_bytes


def test_service_remote_failure_degrades_to_resident(served_dir, server):
    url = server.url_for("v2.rprc")
    poison = set()
    injector = FaultInjector(FaultPlan.at(poison))
    options = dict(tamper=injector.tamper, retries=0, backoff=0.0)
    with RetrievalService(retries=0, remote_options=options) as service:
        with ChunkedDataset(served_dir / "v2.rprc") as dataset:
            stored = dataset.absolute_bound
        coarse = service.get(url, error_bound=stored * 16)
        assert not coarse.trace.degraded
        # Every future remote read fails: the finer request cannot refine,
        # so it degrades to the resident coarse rung instead of erroring.
        injector.plan.rules.extend(FaultPlan.always(kind="raise").rules)
        refined = service.get(url, error_bound=stored)
        assert refined.trace.degraded
        assert refined.trace.achieved_bound <= stored * 16
        assert service.stats()["degraded"] == 1


def test_service_remote_fingerprint_change_purges_session(tmp_path):
    path = tmp_path / "data.rprc"
    ChunkedDataset.write(
        path, _field((12, 10, 8), 5), error_bound=1e-4, relative=True,
        n_blocks=2, workers=0,
    )
    with RangeServer(tmp_path) as srv, RetrievalService() as service:
        url = srv.url_for("data.rprc")
        first = service.get(url)
        # Replace the served object in place: same URL, different bytes.
        ChunkedDataset.write(
            path, _field((12, 10, 8), 6), error_bound=1e-4, relative=True,
            n_blocks=2, workers=0,
        )
        with ChunkedDataset(path) as dataset:
            oracle = dataset.read()
        fresh = service.get(url)
        assert np.array_equal(fresh.data, oracle.data)
        assert not np.array_equal(fresh.data, first.data)
        assert fresh.trace.physical_reads > 0


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


def test_failed_prime_is_refunded_and_never_fatal():
    payload = bytes(range(200))
    gate = threading.Event()
    lock = threading.Lock()

    class _FirstReadDies:
        size = len(payload)

        def __init__(self):
            self.calls = 0

        def read_range(self, offset, length):
            with lock:
                self.calls += 1
                first = self.calls == 1
            if first:
                assert gate.wait(5.0)
                raise RemoteSourceError("speculative prime dies")
            return payload[offset : offset + length]

    inner = _FirstReadDies()
    with Prefetcher(depth=2) as prefetcher:
        source = PrefetchSource(inner, prefetcher)
        assert source.prime([(0, 50)]) == 50
        assert source.bytes_fetched == 50  # charged at prime time
        threading.Timer(0.02, gate.set).start()
        # The consuming read hits the failed prime, refunds it, and
        # degrades to a direct synchronous read — never fatal.
        assert source.read_range(0, 50) == payload[:50]
        assert source.bytes_fetched == 50  # prime refunded, direct charged
        assert inner.calls == 2


def test_failed_prime_refunds_via_done_callback_too():
    class _FirstReadFails:
        size = 64
        calls = 0

        def read_range(self, offset, length):
            self.calls += 1
            if self.calls == 1:
                raise RemoteSourceError("speculative prime dies")
            return bytes(length)

    inner = _FirstReadFails()
    with Prefetcher(depth=1) as prefetcher:
        source = PrefetchSource(inner, prefetcher)
        source.prime([(0, 32)])
        deadline = time.monotonic() + 5.0
        while source.bytes_fetched != 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert source.bytes_fetched == 0  # refunded without any consumer
        assert source.read_range(0, 32) == bytes(32)
        assert source.bytes_fetched == 32


# ------------------------------------------------------ short-read hardening


def test_file_source_truncation_names_the_offset(tmp_path):
    path = tmp_path / "stream.bin"
    path.write_bytes(bytes(100))
    with FileSource(path) as source:
        path.write_bytes(bytes(60))  # truncate behind the open handle
        with pytest.raises(
            StreamFormatError,
            match=r"truncated at offset 50: wanted 30 B, got 10",
        ):
            source.read_range(50, 30)


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
