"""Multiplexed range I/O: event-loop transport, prefetch bridge, CLI.

Covers the remote transport end to end (the ladder's units and the fault
matrix live in ``test_remote.py``):

* unit pieces — ``coalesce_ops``, the pooled transport's in-flight
  bound, request accounting and stale-connection retry;
* byte identity {v1, v2} × {stream, container} × prefetch {0, 4} over
  loopback HTTP (depth 0 is the serial read), and the multiplexed path
  under client faults, server latency/stall faults, and a primary dying
  mid-session — every combination must match the local serial oracle
  bitwise;
* the multiplexed read at least 2× faster than the serial one when every
  range read costs 50 ms, with the same requests on the wire;
* the :class:`~repro.io.aio.AsyncPrefetcher` bridge — adjacent primes
  coalesce into one wire request, a request's past deadline refunds its
  prefetch charge, and closing a prefetcher mid-request never kills the
  shared loop thread;
* the CLI — identical outputs at ``--prefetch 0`` and the default depth,
  with an ``inflight_max > 1`` receipt for the latter;
* rangeserver connection hygiene — a stalled connection cannot wedge
  other in-flight connections, a client pool reuses its connections, and
  idle keep-alive sockets are reaped.

Randomness: this module is deterministic (fixed seeds); never touch the
shared session ``rng`` fixture.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import cumsum_field, legacy_layout

from repro import ChunkedDataset
from repro.cli import main
from repro.errors import RemoteSourceError, StreamFormatError
from repro.io import aio, rangeserver, remote
from repro.io.aio import (
    CONNECTIONS,
    HEDGE_MIN_SAMPLES,
    MAX_MERGE_GAP,
    OPENING_WINDOW,
    AsyncPrefetcher,
    EventLoopThread,
    coalesce_burst,
    coalesce_ops,
    open_remote_source,
)
from repro.io.container import BlockContainerReader
from repro.io.faults import FaultInjector, FaultPlan
from repro.io.rangeserver import RangeServer
from repro.io.remote import REQUEST_DEADLINE
from repro.retrieval.engine import DEFAULT_HEADER_PRIME
from repro.retrieval.prefetch import DEFAULT_PREFETCH_DEPTH, PrefetchSource


def _read(path_or_url, **knobs):
    """Full-fidelity read of a container or a bare stream."""
    with ChunkedDataset(path_or_url, **knobs) as dataset:
        return dataset.read()


# ----------------------------------------------------------------- unit bits


def test_coalesce_ops_merges_and_splits(monkeypatch):
    # Adjacent and overlapping ops merge; gaps and the batch cap split.
    batches = coalesce_ops([(100, 50), (0, 100), (150, 10)])
    assert [(b[0], b[1]) for b in batches] == [(0, 160)]
    assert [len(b[2]) for b in batches] == [3]
    # Any gap starts a new batch (only coalesce_burst bridges gaps).
    batches = coalesce_ops([(0, 10), (20, 10)])
    assert [(b[0], b[1]) for b in batches] == [(0, 10), (20, 10)]
    # MAX_BATCH bounds a single merged extent.
    monkeypatch.setattr(aio, "MAX_BATCH", 150)
    batches = coalesce_ops([(0, 100), (100, 100)])
    assert [(b[0], b[1]) for b in batches] == [(0, 100), (100, 100)]


def _extents(batches):
    return [[(start, total) for start, total, _members in group] for group in batches]


def test_coalesce_burst_closes_the_smallest_gaps_until_one_wave(monkeypatch):
    # Two address spaces (shards), four ops each: 8 GETs for 6 connections.
    shard_a = [(0, 100), (150, 100), (300, 100), (1400, 100)]  # gaps 50, 50, 1000
    shard_b = [(0, 100), (120, 100), (900, 100), (1300, 100)]  # gaps 20, 680, 300
    # It already fits: nothing but touching ops merges, whatever the gaps.
    assert _extents(coalesce_burst([shard_a, shard_b], 8)) == [
        [(off, 100) for off, _ in shard_a], [(off, 100) for off, _ in shard_b],
    ]
    # Two too many: exactly the two smallest gaps (20, then one 50) close.
    assert _extents(coalesce_burst([shard_a, shard_b], 6)) == [
        [(0, 250), (300, 100), (1400, 100)],
        [(0, 220), (900, 100), (1300, 100)],
    ]
    # Down to one GET per shard when it must.
    assert _extents(coalesce_burst([shard_a, shard_b], 2)) == [[(0, 1500)], [(0, 1400)]]
    # Never across address spaces, and never a gap past the ceiling —
    # even if the burst then needs a second wave.
    wide = MAX_MERGE_GAP
    far = [(0, 10), (wide + 11, 10), (2 * wide + 21, 10)]  # gaps wide + 1, wide
    assert _extents(coalesce_burst([far, [(0, 10)]], 1)) == [
        [(0, 10), (wide + 11, wide + 20)], [(0, 10)],
    ]
    # Members keep their identity inside a bridged batch (payloads are cut
    # back out of it per op).
    (batch,), = coalesce_burst([[(40, 5, "late"), (0, 5, "early")]], 1)
    assert batch == (0, 45, [(0, 5, "early"), (40, 5, "late")])
    # MAX_BATCH still bounds a bridged extent.
    monkeypatch.setattr(aio, "MAX_BATCH", 200)
    assert _extents(coalesce_burst([[(0, 100), (150, 100)]], 1)) == [
        [(0, 100), (150, 100)]
    ]


def test_async_source_basic_reads(served_dir, server):
    blob = (served_dir / "v2.rprc").read_bytes()
    with open_remote_source(server.url_for("v2.rprc")) as source:
        assert source.size == len(blob)
        assert source.stats()["requests"] == 1  # opened in one round trip
        assert source.read_range(10, 33) == blob[10:43]
        assert source.read_range(5, 0) == b""
        assert source.stats()["requests"] == 2
        # Reads wholly inside the opening window are served from memory, one
        # straddling its start fetches only the byte before it; the
        # freshness probe never is.
        edge = len(blob) - OPENING_WINDOW
        assert source.read_range(edge, 100) == blob[edge:edge + 100]
        assert source.read_range(len(blob) - 4, 4) == blob[-4:]
        assert source.stats()["requests"] == 2
        assert source.read_range(edge - 1, 100) == blob[edge - 1:edge + 99]
        total, tail = source.read_tail(64)
        assert total == len(blob) and tail == blob[-64:]
        stats = source.stats()
        assert stats["requests"] == 4
        assert stats["retries"] == 0
        assert stats["egress_bytes"] == OPENING_WINDOW + 33 + 1 + 64
        assert stats["connections_opened"] >= 1
        # Out-of-bounds reads raise (after the ladder: StreamFormatError
        # is in RETRYABLE_ERRORS).
        with pytest.raises(StreamFormatError, match="past remote object end"):
            source.read_range(len(blob) - 2, 5)


def test_async_pool_bounds_inflight(served_dir, monkeypatch):
    # Under a uniform per-read latency every submitted range wants the
    # wire at once: the pool must cap concurrency at its 2 connections and
    # the latency must actually force it to the cap.
    monkeypatch.setattr(aio, "CONNECTIONS", 2)
    plan = FaultPlan.always("latency", seconds=0.05)
    blob = (served_dir / "v2.rprc").read_bytes()
    with RangeServer(served_dir, plan=plan) as srv:
        source = open_remote_source(srv.url_for("v2.rprc"))
        try:
            loop = source.loop_thread

            async def burst():
                return await asyncio.gather(
                    *(source.aread_range(i * 100, 100) for i in range(6))
                )

            chunks = loop.call(burst())
            assert chunks == [blob[i * 100:(i + 1) * 100] for i in range(6)]
            stats = source.stats()
            assert stats["inflight_max"] == 2 and stats["connections_opened"] == 2
            assert srv.range_requests == 1 + 6
        finally:
            source.close()


# ------------------------------------------------------- byte-identity matrix


@pytest.mark.parametrize("prefetch", [0, 4])
@pytest.mark.parametrize("version", ["v1", "v2"])
def test_identity_matrix_clean(served_dir, server, version, prefetch):
    stream_oracle = _read(served_dir / f"{version}.ipc", prefetch=0)
    on_wire = server.range_requests
    stream = _read(server.url_for(f"{version}.ipc"), prefetch=prefetch)
    assert stream.data.tobytes() == stream_oracle.data.tobytes()
    assert stream.bytes_loaded == stream_oracle.bytes_loaded
    # Not answered out of the opening window: the stream went by wire (the
    # whole v1 stream fits one header prime).
    assert server.range_requests - on_wire >= 2

    container_oracle = _read(served_dir / f"{version}.rprc")
    on_wire = server.range_requests
    container = _read(server.url_for(f"{version}.rprc"), prefetch=prefetch)
    assert container.data.tobytes() == container_oracle.data.tobytes()
    assert container.bytes_loaded == container_oracle.bytes_loaded
    assert server.range_requests - on_wire >= 6


def test_default_argument_url_dataset_prefetches(served_dir):
    """``ChunkedDataset(url)`` with no knobs must not fall back to one round
    trip per plane block: same requests and bytes as the explicit depth."""

    def fetch(**knobs):
        with RangeServer(served_dir) as srv:
            with ChunkedDataset(srv.url_for("v2.rprc"), **knobs) as dataset:
                result = dataset.read(error_bound=dataset.absolute_bound * 16)
            return result, srv.range_requests

    default, default_requests = fetch()
    explicit, explicit_requests = fetch(prefetch=DEFAULT_PREFETCH_DEPTH)
    serial, serial_requests = fetch(prefetch=0)
    assert default.data.tobytes() == explicit.data.tobytes() == serial.data.tobytes()
    assert default.ranges == explicit.ranges == serial.ranges
    assert default.bytes_loaded == explicit.bytes_loaded == serial.bytes_loaded
    assert default_requests == explicit_requests < serial_requests


def test_multiplexed_read_beats_the_serial_read_twice_under_latency(tmp_path):
    """Every range read of a 16-shard archive costs 50 ms on the server.
    The serial read (``prefetch=0``) waits for one request at a time; the
    multiplexed default opens in one round trip and sends the payload in
    waves of a pool of concurrent requests, so it is at least 2× faster.
    Latency is ≈ 0.75 s of the serial leg and ≈ 0.2 s of the other, against
    ≈ 0.1 s of decode the two share, so the ratio holds on any core count
    and under a tracer (3.0 with two busy loops on two cores and a trace
    function set; 2.2 at 20 ms/read).  Both legs send
    the same requests and return the local read's bytes, without a retry."""
    path = tmp_path / "field.rprc"
    ChunkedDataset.write(
        path, cumsum_field((128, 48, 40), 4), error_bound=1e-5, relative=True, n_blocks=16
    )
    assert path.stat().st_size >= 3 * OPENING_WINDOW
    local = _read(path)
    plan = FaultPlan.always("latency", seconds=0.05)

    def leg(prefetch):
        seconds = float("inf")
        with RangeServer(tmp_path, plan=plan) as srv:
            url = srv.url_for(path.name)
            for _ in range(3):
                start = time.perf_counter()
                stack = open_remote_source(url)
                with ChunkedDataset(url, source=stack, prefetch=prefetch) as dataset:
                    result, stats = dataset.read(), stack.stats()
                    shards = len(dataset.shards)
                seconds = min(seconds, time.perf_counter() - start)
                assert result.data.tobytes() == local.data.tobytes()
                assert result.bytes_loaded == local.bytes_loaded
                assert stats["retries"] == 0
        return seconds, stats, shards

    serial_s, serial, shards = leg(0)
    multiplexed_s, multiplexed, _ = leg(DEFAULT_PREFETCH_DEPTH)
    assert serial["inflight_max"] == 1 and multiplexed["inflight_max"] > 1
    # The opening request, then at most one payload request per shard (not
    # one per plane block); concurrency changes none of them.
    assert 2 < serial["requests"] == multiplexed["requests"] <= 1 + shards
    assert serial_s >= 2.0 * multiplexed_s, (serial_s, multiplexed_s)


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_identity_async_under_client_faults(served_dir, server, patient, version):
    # Every client-side fault kind, on a deterministic schedule, below CRC
    # verification: the retry ladder heals them all and the answer stays
    # bitwise-identical (short reads surface as stale-connection retries,
    # corruption as integrity retries).
    oracle = _read(served_dir / f"{version}.rprc")
    plan = (
        FaultPlan.at({2, 9}, kind="raise")
        + FaultPlan.at({4}, kind="corrupt")
        + FaultPlan.at({6}, kind="short")
        + FaultPlan.at({8}, kind="latency", seconds=0.01)
    )
    injector = FaultInjector(plan)
    stack = open_remote_source(server.url_for(f"{version}.rprc"), tamper=injector.tamper)
    result = _read(
        server.url_for(f"{version}.rprc"),
        source=stack, prefetch=4,
    )
    assert result.data.tobytes() == oracle.data.tobytes()
    assert result.bytes_loaded == oracle.bytes_loaded
    assert injector.stats()["faults_injected"] >= 4
    assert injector.total_reads >= 9  # the schedule's last entry was reached


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_identity_async_under_server_faults(served_dir, patient, version):
    # Server-side latency plus stall→500 replies: the stall costs one
    # connection (the server closes it after the error), other in-flight
    # ranges proceed, and the ladder re-reads the stalled range.
    oracle = _read(served_dir / f"{version}.rprc")
    # First-match-wins: the stall rule must precede the catch-all latency.
    plan = FaultPlan.at({3, 7}, kind="stall", seconds=0.02) + FaultPlan.always(
        "latency", seconds=0.005
    )
    with RangeServer(served_dir, plan=plan) as srv:
        stack = open_remote_source(srv.url_for(f"{version}.rprc"))
        result = _read(
            srv.url_for(f"{version}.rprc"), source=stack, prefetch=4,
        )
        stats = stack.stats()
        assert srv.faults_served >= 2 and srv.range_requests >= 8
    assert result.data.tobytes() == oracle.data.tobytes()
    assert result.bytes_loaded == oracle.bytes_loaded
    assert stats["retries"] >= 1


def test_identity_async_mirror_failover(served_dir, server, monkeypatch):
    # The primary dies mid-session (every read after the first fails, on
    # every retry): the next read fails over, the replica serves from then
    # on, and the stream of answers never changes.  The frozen clock removes
    # the latency signal, so health ranking is failures-then-listing-order
    # and the read that meets the dead primary is the same one every run.
    monkeypatch.setattr(aio, "RETRIES", 1)
    monkeypatch.setattr(remote, "BACKOFF", 0.0)
    oracle = _read(served_dir / "v2.rprc")
    injector = FaultInjector(FaultPlan.never())
    with RangeServer(served_dir) as primary:
        url = primary.url_for("v2.rprc")
        stack = open_remote_source(
            url,
            mirrors=[server.url_for("v2.rprc")],
            tamper=lambda endpoint, t: injector.tamper(endpoint, t) if endpoint == url else t,
            clock=lambda: 0.0,
        )
        first = stack.read_range(0, 64)
        injector.plan.rules.extend(FaultPlan.always(kind="raise").rules)
        on_wire = server.range_requests
        result = _read(url, source=stack, prefetch=4)
        stats = stack.stats()
        # Everything after the dead primary's two attempts hit the replica.
        assert server.range_requests - on_wire >= 6
    blob = (served_dir / "v2.rprc").read_bytes()
    assert first == blob[:64]
    assert result.data.tobytes() == oracle.data.tobytes()
    assert result.bytes_loaded == oracle.bytes_loaded
    assert stats["failovers"] == 1
    assert injector.faults_injected == 2  # the attempt and its one retry


def test_async_hedged_read_wins_race(served_dir, server):
    # The primary serves HEDGE_MIN_SAMPLES reads at loopback speed — which
    # arms the adaptive threshold at their p90 — and then turns slow (a
    # 300 ms tail injected below its CRC gate): the clean replica's hedges
    # win those races, and winners are byte-identical to the slow path by
    # construction.
    blob = (served_dir / "v2.rprc").read_bytes()
    tail = FaultInjector(
        FaultPlan.at(range(HEDGE_MIN_SAMPLES + 2, 10**6), "latency", seconds=0.3)
    )
    with RangeServer(served_dir) as primary:
        url = primary.url_for("v2.rprc")
        stack = open_remote_source(
            url,
            mirrors=[server.url_for("v2.rprc")],
            tamper=lambda endpoint, t: tail.tamper(endpoint, t) if endpoint == url else t,
        )
        try:
            # Read #1 of the primary's injector was its opening read.
            for i in range(HEDGE_MIN_SAMPLES):
                assert stack.read_range(i * 256, 128) == blob[i * 256:i * 256 + 128]
            began = time.perf_counter()
            for i in range(4):
                assert stack.read_range(i * 256, 128) == blob[i * 256:i * 256 + 128]
            # No read waited out the tail (a winning replica may take over
            # as primary, so not every one of them needs a hedge).
            assert time.perf_counter() - began < 0.3
            stats = stack.stats()
            assert stats["hedges"] >= 1 and stats["hedge_wins"] >= 1
        finally:
            stack.close()


# ------------------------------------------------------- the round-trip shape


class _VirtualTimeLoop(asyncio.SelectorEventLoop):
    """A loop for a loop *thread* whose timed waits cost no wall time.

    ``asyncio.sleep`` advances ``loop.time()`` by exactly the delay, so a
    scripted round trip of 50 ms is 50 virtual ms and concurrent ones
    overlap: elapsed virtual time / rtt counts the *dependent* waves of a
    read.  With nothing scheduled the thread blocks for real, waiting for
    the next coroutine the test thread submits.
    """

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0
        select = self._selector.select

        def jump(timeout=None):
            if timeout is None or timeout <= 0:
                return select(timeout)
            self._now += timeout
            return select(0)

        self._selector.select = jump

    def time(self) -> float:
        return self._now


@pytest.fixture
def virtual_loop(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(asyncio, "new_event_loop", _VirtualTimeLoop)
        thread = EventLoopThread(name="repro-aio-virtual")
    yield thread
    thread.close()


class _ScriptedTransport:
    """The transport's ``aget`` over a byte string, one round trip per request.

    Each request holds one of :data:`~repro.io.aio.CONNECTIONS` pooled
    connections for ``rtt`` (virtual) seconds and is logged as ``(start
    time, offset, length)`` — requests that start at the same instant are
    one wave.  Installed through the ``tamper`` hook (:meth:`tamper`), it
    answers in place of the never-connected HTTP transport, *below* the CRC
    gate and the retry loop; its opening read sizes that transport, as the
    real reply would.
    """

    def __init__(self, blob: bytes, rtt=0.05):
        self.blob = blob
        self.rtt = rtt
        self.log = []
        self._unconnected = None
        self._pool = None

    def tamper(self, _url, unconnected):
        self._unconnected = unconnected
        return self

    async def aget(self, offset, length):
        if self._pool is None:
            self._pool = asyncio.Semaphore(aio.CONNECTIONS)
        async with self._pool:
            self.log.append((asyncio.get_running_loop().time(), offset, length))
            await asyncio.sleep(self.rtt)
        if offset < 0:
            self._unconnected.size = len(self.blob)
            data = self.blob[-length:]
        else:
            data = self.blob[offset : offset + length]
        return data, zlib.crc32(data)

    @property
    def waves(self):
        """Requests per dependent wave, in order."""
        starts = sorted({start for start, _offset, _length in self.log})
        return [sum(1 for entry in self.log if entry[0] == start) for start in starts]


def _scripted_source(blob, loop):
    transport = _ScriptedTransport(blob)
    source = open_remote_source(
        "http://scripted.invalid/archive.rprc", tamper=transport.tamper, loop=loop
    )
    return source, transport


@pytest.fixture(scope="module")
def roi_archive(tmp_path_factory) -> Path:
    """Eight shards, the first four (the ROI below) well before the window."""
    path = tmp_path_factory.mktemp("aio-roi") / "roi.rprc"
    ChunkedDataset.write(
        path, cumsum_field((64, 48, 40), 4), error_bound=1e-6, relative=True,
        n_blocks=8,
    )
    return path


@pytest.fixture(scope="module")
def legacy_roi_archive(roi_archive) -> Path:
    """The same archive without its headers block: each shard is parsed
    from its own head."""
    return legacy_layout(roi_archive, roi_archive.with_name("legacy.rprc"))


_ROI = (slice(0, 32), slice(None), slice(None))  # shards 0-3 of 8


def _cold_roi_reads(archive, virtual_loop):
    """Per rung (1024 and 1 × the stored bound): the scripted transport of
    a cold remote read of :data:`_ROI`, checked bitwise against the local
    oracle — data, ``bytes_loaded`` and ranges — and the virtual seconds
    it took."""
    blob = archive.read_bytes()
    with ChunkedDataset(archive) as local:
        stored = local.absolute_bound
        oracles = {rung: local.read(error_bound=rung * stored, roi=_ROI) for rung in (1024, 1)}
        planned = {
            rung: local.plan(error_bound=rung * stored, roi=_ROI).n_ops for rung in (1024, 1)
        }
    assert planned[1024] > 4 * CONNECTIONS and planned[1] == 4
    reads = {}
    for rung, oracle in oracles.items():
        began = virtual_loop.loop.time()
        source, transport = _scripted_source(blob, virtual_loop)
        with ChunkedDataset("http://scripted.invalid/archive.rprc", source=source) as dataset:
            assert transport.log == [(began, -OPENING_WINDOW, OPENING_WINDOW)]
            result = dataset.read(error_bound=rung * stored, roi=_ROI)
        assert result.data.tobytes() == oracle.data.tobytes()
        assert result.bytes_loaded == oracle.bytes_loaded
        assert sorted(result.ranges) == sorted(oracle.ranges)
        reads[rung] = transport, virtual_loop.loop.time() - began
    return reads


def test_cold_roi_read_is_three_dependent_waves(legacy_roi_archive, virtual_loop):
    """Legacy layout — open, headers, payload: a cold remote ROI read is
    three round trips deep at *every* fidelity — the coarse target, whose
    plan is many small ops with skipped planes between them, must not need
    more than the fine one, whose plan is one op per shard."""
    shapes = {}
    for rung, (transport, elapsed) in _cold_roi_reads(legacy_roi_archive, virtual_loop).items():
        waves = transport.waves
        # One opening request, one header prime per ROI shard, then at most
        # a pool's worth of payload GETs — and nothing after that.
        assert waves[:2] == [1, 4] and len(waves) == 3, (rung, transport.log)
        assert 4 <= waves[2] <= CONNECTIONS
        assert elapsed == pytest.approx(3 * transport.rtt)
        shapes[rung] = waves
    assert sum(shapes[1024]) <= 1 + 4 + CONNECTIONS
    assert shapes[1] == [1, 4, 4]


def test_cold_roi_read_is_two_dependent_waves(roi_archive, virtual_loop):
    """An archive with a headers block — open, payload: the shard headers
    ride the opening read, so a cold remote ROI read is two round trips
    deep at every fidelity, with the local read's bytes and ranges."""
    shapes = {}
    for rung, (transport, elapsed) in _cold_roi_reads(roi_archive, virtual_loop).items():
        waves = transport.waves
        assert len(waves) == 2 and waves[0] == 1, (rung, transport.log)
        assert 4 <= waves[1] <= CONNECTIONS
        assert elapsed == pytest.approx(2 * transport.rtt)
        shapes[rung] = waves
    assert shapes[1] == [1, 4]


@pytest.fixture(scope="module")
def wide_archive(tmp_path_factory) -> Path:
    """Sixteen shards, each longer than a header prime plus the widest gap
    a burst bridges (≈ 91 KB), so no two shard heads share a GET."""
    path = tmp_path_factory.mktemp("aio-wide") / "wide.rprc"
    field = np.random.default_rng(11).normal(size=(512, 32, 32))
    ChunkedDataset.write(path, field, error_bound=1e-7, relative=True, n_blocks=16)
    return path


def test_cold_sixteen_shard_read_needs_no_header_wave(wide_archive, virtual_loop, tmp_path):
    """A cold whole-field remote read of sixteen shards: the legacy layout
    primes sixteen heads over a pool of CONNECTIONS, ⌈16 / CONNECTIONS⌉
    waves before the payload; the headers block needs none.  The payload
    is one GET per shard (a burst merges ranges within a shard only), so
    it takes as many waves again in both layouts."""
    legacy = legacy_layout(wide_archive, tmp_path / "legacy.rprc")
    with BlockContainerReader(legacy) as reader:
        shards = [reader.block_size(n) for n in reader.block_names() if n != "manifest"]
    assert len(shards) == 16 and min(shards) > DEFAULT_HEADER_PRIME + MAX_MERGE_GAP
    pool = [CONNECTIONS] * (16 // CONNECTIONS) + [16 % CONNECTIONS] * (16 % CONNECTIONS > 0)
    for archive, header_waves in ((legacy, pool), (wide_archive, [])):
        with ChunkedDataset(archive) as local:
            oracle = local.read()
        began = virtual_loop.loop.time()
        source, transport = _scripted_source(archive.read_bytes(), virtual_loop)
        with ChunkedDataset("http://scripted.invalid/archive.rprc", source=source) as dataset:
            result = dataset.read()
        assert result.data.tobytes() == oracle.data.tobytes()
        assert result.bytes_loaded == oracle.bytes_loaded
        assert sorted(result.ranges) == sorted(oracle.ranges)
        waves = transport.waves
        assert waves == [1, *header_waves, *pool], archive.name
        assert virtual_loop.loop.time() - began == pytest.approx(len(waves) * transport.rtt)


def test_burst_larger_than_the_pool_is_merged_into_one_wave(virtual_loop, monkeypatch):
    """More primed ranges than pooled connections: the smallest gaps are
    bridged until the burst is one wave, and every range still reads back
    exactly its own bytes (bridged bytes are fetched, never served)."""
    monkeypatch.setattr(aio, "CONNECTIONS", 3)
    blob = bytes(np.random.default_rng(7).integers(0, 256, 4 * OPENING_WINDOW, dtype=np.uint8))
    source, transport = _scripted_source(blob, virtual_loop)
    prefetcher = AsyncPrefetcher(loop=virtual_loop)
    primed = PrefetchSource(source, prefetcher)
    try:
        # Gaps: 10, 500, 40, 3000, 20, MAX_MERGE_GAP + 1, 60.
        ranges, cursor = [], 1000
        for gap in (0, 10, 500, 40, 3000, 20, MAX_MERGE_GAP + 1, 60):
            cursor += gap
            ranges.append((cursor, 700))
            cursor += 700
        began = virtual_loop.loop.time()
        assert primed.prime(ranges) == 8 * 700
        for offset, length in reversed(ranges):
            assert primed.read_range(offset, length) == blob[offset : offset + length]
        # 8 GETs for 3 connections: the five smallest gaps close, the 3000
        # and the over-ceiling one stay open.
        fetched = sorted((offset, length) for _start, offset, length in transport.log[1:])
        assert fetched == [
            (ranges[0][0], ranges[3][0] + 700 - ranges[0][0]),
            (ranges[4][0], ranges[5][0] + 700 - ranges[4][0]),
            (ranges[6][0], ranges[7][0] + 700 - ranges[6][0]),
        ]
        assert transport.waves == [1, 3]
        assert virtual_loop.loop.time() - began == pytest.approx(transport.rtt)
        assert primed.inflight == 0
        assert (prefetcher.batches, prefetcher.batched_ops) == (3, 8)
    finally:
        prefetcher.close()
        primed.close()


# ------------------------------------------------------------ prefetch bridge


def test_adjacent_primes_coalesce_to_one_request(served_dir, server):
    blob = (served_dir / "v2.rprc").read_bytes()
    stack = open_remote_source(server.url_for("v2.rprc"))
    prefetcher = AsyncPrefetcher(loop=stack.loop_thread)
    source = PrefetchSource(stack, prefetcher)
    try:
        before = stack.stats()["requests"]
        # One prime() is one burst: both ranges reach the loop thread
        # together however fast it wakes.
        source.prime([(0, 512), (512, 512)])
        assert source.read_range(0, 512) == blob[:512]
        assert source.read_range(512, 512) == blob[512:1024]
        assert stack.stats()["requests"] == before + 1  # one coalesced GET
        assert prefetcher.batches >= 1
        assert prefetcher.batched_ops >= 2
    finally:
        prefetcher.close()
        source.close()


def test_deadline_cancel_refunds_prefetch_charge(served_dir, server):
    stack = open_remote_source(server.url_for("v2.rprc"))
    prefetcher = AsyncPrefetcher(loop=stack.loop_thread)
    source = PrefetchSource(stack, prefetcher)
    try:
        # This thread's request is already out of time: the prime carries
        # its deadline onto the loop thread.
        expired = REQUEST_DEADLINE.set(time.monotonic() - 1.0)
        source.prime([(0, 256)])
        # The primed read fails on the dead deadline; the prime is dropped
        # and the degrade-to-direct read fails the same way.
        with pytest.raises(RemoteSourceError, match="deadline"):
            source.read_range(0, 256)
        assert source.inflight == 0
        # Out of that request, the source is healthy: a direct read.
        REQUEST_DEADLINE.reset(expired)
        blob = (served_dir / "v2.rprc").read_bytes()
        before = stack.stats()["requests"]
        assert source.read_range(0, 256) == blob[:256]
        assert stack.stats()["requests"] == before + 1
    finally:
        prefetcher.close()
        source.close()


def test_prefetcher_close_mid_request_spares_loop(served_dir):
    plan = FaultPlan.always("latency", seconds=0.1)
    with RangeServer(served_dir, plan=plan) as srv:
        stack = open_remote_source(srv.url_for("v2.rprc"))
        loop = stack.loop_thread
        prefetcher = AsyncPrefetcher(loop=loop)
        source = PrefetchSource(stack, prefetcher)
        source.prime([(0, 128)])
        prefetcher.close()  # while the 100 ms read is still on the wire
        assert prefetcher.closed
        assert loop.alive  # the shared loop must survive the close
        with pytest.raises(RuntimeError, match="after shutdown"):
            prefetcher.submit(stack.read_range, 0, 16)
        # The stack (and a fresh prefetcher on the same loop) still work.
        blob = (served_dir / "v2.rprc").read_bytes()
        assert source.read_range(0, 128) == blob[:128]
        fresh = AsyncPrefetcher(loop=loop)
        replacement = PrefetchSource(stack, fresh)
        replacement.prime([(256, 128)])
        assert replacement.read_range(256, 128) == blob[256:384]
        fresh.close()
        source.close()


def test_event_loop_thread_close_and_shared_revival():
    loop = EventLoopThread()
    import asyncio

    assert loop.call(asyncio.sleep(0, result="ok")) == "ok"
    loop.close()
    assert not loop.alive
    with pytest.raises(RuntimeError, match="not running"):
        loop.run(asyncio.sleep(0))
    shared = EventLoopThread.shared()
    assert shared.alive
    assert EventLoopThread.shared() is shared


# --------------------------------------------------------------- CLI backend


@pytest.mark.parametrize("prefetch", [0, 4])
def test_cli_retrieve_io_backends_identical(served_dir, server, tmp_path, prefetch):
    local = tmp_path / "local.raw"
    assert main([
        "retrieve", str(served_dir / "v2.rprc"), "-o", str(local),
        "--error-bound", "1e-3", "--prefetch", "0",
    ]) == 0
    out, trace = tmp_path / "remote.raw", tmp_path / "remote.json"
    assert main([
        "retrieve", server.url_for("v2.rprc"), "-o", str(out),
        "--error-bound", "1e-3", "--prefetch", str(prefetch),
        "--trace-json", str(trace),
    ]) == 0
    assert out.read_bytes() == local.read_bytes()
    remote = json.loads(trace.read_text())["remote"]
    assert remote["retries"] == 0
    # Depth 0 is the serial read; any other depth multiplexes.
    assert (remote["inflight_max"] > 1) == (prefetch > 0)
    if prefetch:
        # One request to open (container sniff, footer and manifest ride the
        # opening read), a header per shard, a pool's worth of payload GETs.
        assert 3 <= remote["requests"] <= 1 + 4 + CONNECTIONS


# ------------------------------------------------------- rangeserver hygiene


def test_rangeserver_stall_does_not_wedge_other_connections(served_dir, monkeypatch):
    # Range reply #2 — client A's first read, after its opening read —
    # stalls for 0.4 s on connection A; client B's open and read must
    # complete while A is still stuck (thread-per-connection isolation).
    monkeypatch.setattr(aio, "RETRIES", 0)
    plan = FaultPlan.at({2}, kind="stall", seconds=0.4)
    blob = (served_dir / "v2.rprc").read_bytes()
    with RangeServer(served_dir, plan=plan) as srv:
        url = srv.url_for("v2.rprc")
        stalled_done = threading.Event()

        def stalled():
            with open_remote_source(url) as src:
                try:
                    src.read_range(0, 64)  # draws the stall → 500
                except RemoteSourceError:
                    pass
            stalled_done.set()

        worker = threading.Thread(target=stalled, daemon=True)
        worker.start()
        time.sleep(0.05)  # let the stalled read hit the server first
        start = time.perf_counter()
        with open_remote_source(url) as src:
            assert src.read_range(64, 64) == blob[64:128]
        elapsed = time.perf_counter() - start
        assert elapsed < 0.35, "read waited out another connection's stall"
        assert stalled_done.wait(timeout=5.0)


def test_rangeserver_max_connections_and_counters(served_dir, monkeypatch):
    # A burst of 8 slow reads over a client pool of 4: the pool opens
    # exactly its 4 connections and reuses them, with nothing retried.
    monkeypatch.setattr(aio, "CONNECTIONS", 4)
    plan = FaultPlan.always("latency", seconds=0.05)
    with RangeServer(served_dir, plan=plan) as srv:
        url = srv.url_for("v2.rprc")
        with open_remote_source(url) as src:

            async def burst():
                return await asyncio.gather(
                    *(src.aread_range(i * 64, 64) for i in range(8))
                )

            before = src.stats()["requests"]
            start = time.perf_counter()
            src.loop_thread.call(burst())
            elapsed = time.perf_counter() - start
            stats = src.stats()
        assert elapsed < 1.0
        assert stats["retries"] == 0
        assert stats["requests"] - before == 8
        assert stats["connections_opened"] == 4
        assert srv.range_requests == 1 + 8  # the opening read, then the burst
    assert srv.open_connections == 0


def test_stale_keepalive_is_retried_once_on_a_fresh_connection(
    served_dir, settles, monkeypatch
):
    # The server reaps the pooled connection while it idles; the next read
    # hits EOF on it and is transparently re-sent on a new connection —
    # below the ladder, so no retry is spent.
    blob = (served_dir / "v2.rprc").read_bytes()
    monkeypatch.setattr(rangeserver, "HANDLER_TIMEOUT", 0.1)
    with RangeServer(served_dir) as srv:
        with open_remote_source(srv.url_for("v2.rprc")) as src:
            assert src.read_range(0, 64) == blob[:64]
            assert settles(lambda: srv.open_connections == 0)
            assert src.read_range(64, 64) == blob[64:128]
            stats = src.stats()
            assert stats["connections_opened"] == 2 and stats["retries"] == 0


def test_rangeserver_reaps_idle_connections(served_dir, monkeypatch):
    monkeypatch.setattr(rangeserver, "HANDLER_TIMEOUT", 0.2)
    with RangeServer(served_dir) as srv:
        with socket.create_connection((srv.host, srv.port), timeout=5.0) as sock:
            # Say nothing: the handler must give up on the idle socket
            # after HANDLER_TIMEOUT instead of pinning its thread forever.
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # server closed its end
