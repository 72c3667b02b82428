"""The remote transport: multiplexed HTTP range reads under one resilience ladder.

An ``http(s)://`` stream or container is read by an asyncio event loop
running in a single daemon thread; everything above it keeps the plain
``size`` / ``read_range`` byte-range interface.  Bottom to top:

* :class:`AsyncHTTPTransport` — the wire: a pool of up to
  :data:`CONNECTIONS` persistent HTTP/1.1 connections per endpoint, which
  is also its in-flight bound; every coalesced
  :class:`~repro.retrieval.plan.FetchOp` maps onto a ranged GET with
  strict 206/200 + ``Content-Range`` validation, gated by a per-endpoint
  :class:`~repro.io.remote.CircuitBreaker` (an open breaker raises
  :class:`~repro.errors.CircuitOpenError`).  Each request returns
  ``(payload, declared_crc)`` — under multiplexing a ``last_crc``
  attribute handoff would race, so the CRC travels with the payload.
  There is no sizing request: the object is sized by the *opening read*,
  one suffix-range GET of :data:`OPENING_WINDOW` bytes whose
  ``Content-Range`` carries the total.
* :class:`_Endpoint` — one per URL: the ``tamper`` hook's view of the
  transport, then the CRC gate, then the retry loop.  Corruption is
  classified as :class:`~repro.errors.RemoteIntegrityError` — retryable,
  and distinct from :class:`~repro.errors.StreamFormatError` (the stream
  is presumed intact; the wire was not).  Retries sleep
  :func:`~repro.io.remote.jittered_backoff`, never past the request's
  :data:`~repro.io.remote.REQUEST_DEADLINE`, and a circuit-open rejection
  is never retried.
* :class:`_MirrorSet` — on top of every stack (a single URL is a set of
  one): failover across endpoints ranked by health (consecutive failures
  + latency EWMA) and *hedged reads* as ``asyncio`` races: a primary read
  slower than the observed p90 latency fires the same range at the
  next-healthiest mirror, first payload wins, the loser is a cancelled
  task.  The stack's one stats builder.
* :class:`AsyncRangeSource` — the synchronous facade
  :func:`open_remote_source` returns: ``read_range`` / ``read_tail`` /
  ``stats`` / ``close`` by submitting coroutines to the loop thread, so
  the container reader, prefetch source, engine, service and scheduler
  know nothing about networking.  It keeps the opening read's bytes — the
  object's tail, where a container's footer and manifest live — and
  answers any read inside them from memory, so opening a remote container
  costs that one round trip.
* :class:`AsyncPrefetcher` — the prefetcher behind
  :class:`~repro.retrieval.prefetch.PrefetchSource`: ``submit()`` returns
  a ``concurrent.futures.Future``, collects the ops of one *burst* (a
  ``prime()`` call, or every shard's plan under one ``burst()``), merges
  them into at most :data:`CONNECTIONS` contiguous GETs
  (:func:`coalesce_burst`; payloads split back per-op client-side), and
  dispatches them as concurrent tasks on the shared loop — one wave.

Output and accounting are bitwise what a local read reports:
consumed-range accounting lives in
:class:`~repro.core.stream.CompressedStore` and never changes, and
coalescing only merges *physical* fetches.  ``prefetch=0`` is the serial
read — one range on the wire at a time.  One process-wide loop
thread (:meth:`EventLoopThread.shared`) is reused by every source and
prefetcher; closing a prefetcher never stops a shared loop.
"""

from __future__ import annotations

import asyncio
import threading
import time
import zlib
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    RemoteIntegrityError,
    RemoteSourceError,
    StreamFormatError,
)
from repro.io.remote import (
    CRC_HEADER,
    REQUEST_DEADLINE,
    RETRYABLE_ERRORS,
    CircuitBreaker,
    _Mirror,
    _parse_content_range,
    before_deadline,
    jittered_backoff,
)

__all__ = [
    "AsyncHTTPTransport",
    "AsyncPrefetcher",
    "AsyncRangeSource",
    "EventLoopThread",
    "coalesce_burst",
    "coalesce_ops",
    "open_remote_source",
]

#: Persistent connections per endpoint (opened lazily): the pool, the
#: in-flight bound, and how many GETs one prefetch wave may hold.
CONNECTIONS = 6

#: Seconds a connect or one request/response exchange may take.
TIMEOUT = 10.0

#: Retries per read after its first attempt (their backoff schedule is
#: :func:`~repro.io.remote.jittered_backoff`'s, shared with the service).
RETRIES = 3

#: Bytes of the one suffix-range GET that opens a remote object.  Its reply
#: sizes the object (``Content-Range`` total) and is kept as the *opening
#: window*: a container's tail word, footer and manifest — read back to
#: front by three dependent reads — and a dataset's headers block (every
#: shard's stream header) normally sit inside it, so they cost no further
#: request.  An object whose footer outgrows it just reads on.
OPENING_WINDOW = 65536

#: Ceiling on one coalesced GET, so a huge merged run still pipelines
#: across connections instead of serialising into one monster request.
MAX_BATCH = 8 << 20

#: Hedging: a read that has outlived this quantile of the observed
#: latencies is hedged, once this many reads have been timed.
HEDGE_QUANTILE = 0.9
HEDGE_MIN_SAMPLES = 8

#: Widest gap (bytes) :func:`coalesce_burst` will fetch and throw away to
#: save a round trip — the over-fetch ceiling of one closed gap.
MAX_MERGE_GAP = 65536

# --------------------------------------------------------------- loop thread


class EventLoopThread:
    """One asyncio event loop running in a daemon thread.

    The bridge between the synchronous retrieval stack and the async
    transport: :meth:`run` submits a coroutine from any thread and returns
    a ``concurrent.futures.Future`` (exactly what ``PrefetchSource``
    already consumes).  :meth:`shared` hands out one process-wide instance
    that sources and prefetchers reuse — asyncio primitives bind to their
    loop, so everything that talks to one another must live on the same
    loop.  The shared loop is never stopped by its users; private loops
    (tests) own :meth:`close`.
    """

    _shared: Optional["EventLoopThread"] = None
    _shared_lock = threading.Lock()

    def __init__(self, name: str = "repro-aio") -> None:
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()
        self._started.wait()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._started.set()
        self._loop.run_forever()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    @property
    def alive(self) -> bool:
        return self._thread.is_alive() and not self._loop.is_closed()

    def run(self, coro) -> Future:
        """Schedule ``coro`` on the loop; returns a concurrent Future."""
        if not self.alive:
            coro.close()
            raise RuntimeError("event-loop thread is not running")
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def call(self, coro, timeout: Optional[float] = None):
        """Run ``coro`` on the loop and block for its result."""
        return self.run(coro).result(timeout)

    def call_soon(self, fn: Callable[..., None], *args) -> None:
        self._loop.call_soon_threadsafe(fn, *args)

    def close(self, timeout: float = 5.0) -> None:
        """Stop a *private* loop (never called on the shared instance)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)
        if not self._thread.is_alive() and not self._loop.is_closed():
            self._loop.close()

    @classmethod
    def shared(cls) -> "EventLoopThread":
        with cls._shared_lock:
            if cls._shared is None or not cls._shared.alive:
                cls._shared = cls(name="repro-aio-shared")
            return cls._shared


# ----------------------------------------------------------------- transport


class _AioConn:
    """One pooled connection: stream pair + freshness marker."""

    __slots__ = ("reader", "writer", "fresh")

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.fresh = True


#: Failures that mark a *reused* keep-alive connection as stale (server
#: closed it between requests) — retried once on a fresh connection.
_STALE_ERRORS = (
    asyncio.IncompleteReadError,
    ConnectionResetError,
    BrokenPipeError,
)


def _declared_crc(headers: Dict[str, str]) -> Optional[int]:
    """The server-declared payload CRC32 of a response, if it sent one."""
    try:
        return int(headers[CRC_HEADER.lower()]) & 0xFFFFFFFF
    except (KeyError, ValueError):
        return None


class AsyncHTTPTransport:
    """Async byte-range transport over one HTTP(S) endpoint.

    A pool of up to :data:`CONNECTIONS` persistent HTTP/1.1 connections
    (opened lazily, reused LIFO); as many slots bound the requests in
    flight, so a request always finds an idle connection or room to open
    one.  :meth:`aget` returns ``(payload, declared_crc)`` — the CRC
    travels with the payload because a ``last_crc`` attribute would race
    under multiplexing.  A **206** must carry a ``Content-Range`` matching
    the request exactly and a full-length payload; a **200** (server
    ignored ``Range``) is honoured by slicing the full body — correct, but
    the whole object counts as egress; anything else raises
    :class:`~repro.errors.RemoteSourceError`.  Every request is gated and
    fed by a per-endpoint :class:`~repro.io.remote.CircuitBreaker`; an open
    breaker raises :class:`~repro.errors.CircuitOpenError` without touching
    the network.  This class never verifies payloads, so fault injection
    can sit between it and the CRC gate.

    ``size`` is ``None`` until the first suffix read — ``aget`` with a
    negative offset, the *opening read* :func:`open_remote_source` issues
    through the whole ladder — whose reply carries the object's total.

    All state mutation happens on the loop thread, so no locks; counters
    are plain ints readable from any thread.  :meth:`open` (async) creates
    the loop-bound primitives before the first request.
    """

    def __init__(self, url: str, *, breaker: Optional[CircuitBreaker] = None) -> None:
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigurationError(f"not a usable http(s) URL: {url!r}")
        self.url = url
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._ssl = parts.scheme == "https"
        self._host = parts.hostname
        self._port = parts.port or (443 if self._ssl else 80)
        self._path = parts.path or "/"
        if parts.query:
            self._path += "?" + parts.query
        host_header = parts.hostname
        if parts.port is not None:
            host_header += f":{parts.port}"
        self._host_header = host_header
        self.endpoint = f"{self._host}:{self._port}"
        self._closed = False
        # Loop-bound primitives are created in open() (they must be born
        # on the running loop for 3.10 compatibility).
        self._idle: Optional[asyncio.LifoQueue] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self.size: Optional[int] = None
        self.n_requests = 0
        self.egress_bytes = 0
        self.connections_opened = 0
        self._inflight = 0
        self.inflight_max = 0

    async def open(self) -> "AsyncHTTPTransport":
        """Create the loop-bound primitives (no request is made)."""
        self._idle = asyncio.LifoQueue()
        self._slots = asyncio.Semaphore(CONNECTIONS)
        return self

    # ------------------------------------------------------------------- pool

    async def _connect(self) -> _AioConn:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(
                    self._host, self._port, ssl=True if self._ssl else None
                ),
                TIMEOUT,
            )
        except asyncio.TimeoutError as exc:
            raise RemoteSourceError(
                f"connect to {self.endpoint} timed out after {TIMEOUT}s"
            ) from exc
        except OSError as exc:
            raise RemoteSourceError(
                f"connect to {self.endpoint} failed: {exc}"
            ) from exc
        self.connections_opened += 1
        return _AioConn(reader, writer)

    async def _acquire(self) -> _AioConn:
        """An idle pooled connection, else a new one.  The caller holds one
        of :data:`CONNECTIONS` slots, and every live connection is idle or
        held by a slot, so opening one never outgrows the pool."""
        assert self._idle is not None
        try:
            conn = self._idle.get_nowait()
        except asyncio.QueueEmpty:
            return await self._connect()
        conn.fresh = False
        return conn

    def _discard(self, conn: _AioConn) -> None:
        try:
            conn.writer.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass

    def _release(self, conn: _AioConn, reusable: bool) -> None:
        if self._closed or not reusable:
            self._discard(conn)
        else:
            assert self._idle is not None
            self._idle.put_nowait(conn)

    # -------------------------------------------------------------- wire talk

    async def _exchange(
        self, conn: _AioConn, method: str, headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, str], bytes]:
        lines = [f"{method} {self._path} HTTP/1.1", f"Host: {self._host_header}"]
        lines.extend(f"{key}: {value}" for key, value in headers.items())
        lines.extend(["", ""])
        conn.writer.write("\r\n".join(lines).encode("latin-1"))
        await conn.writer.drain()
        status_line = await conn.reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = status_line.decode("latin-1", "replace").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise RemoteSourceError(
                f"malformed status line {status_line!r} ({self.url})"
            )
        status = int(parts[1])
        resp_headers: Dict[str, str] = {}
        while True:
            line = await conn.reader.readline()
            if line == b"":
                raise asyncio.IncompleteReadError(b"", None)
            if line in (b"\r\n", b"\n"):
                break
            key, _, value = line.decode("latin-1", "replace").partition(":")
            resp_headers[key.strip().lower()] = value.strip()
        body = b""
        if method != "HEAD" and status not in (204, 304):
            length_text = resp_headers.get("content-length")
            if length_text is None:
                raise RemoteSourceError(
                    f"response without Content-Length ({self.url})"
                )
            body = await conn.reader.readexactly(int(length_text))
        return status, resp_headers, body

    async def _roundtrip(
        self, method: str, headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request/response over a pooled connection.

        A reused keep-alive connection the server already closed surfaces
        as an immediate EOF/reset; that single case is retried once on a
        fresh connection (idempotent GET/HEAD).  A cancelled request
        discards its connection — its wire state is unknown.
        """
        for attempt in (0, 1):
            conn = await self._acquire()
            reused = not conn.fresh
            try:
                status, resp_headers, body = await asyncio.wait_for(
                    self._exchange(conn, method, headers), TIMEOUT
                )
            except asyncio.CancelledError:
                self._discard(conn)
                raise
            except asyncio.TimeoutError as exc:
                self._discard(conn)
                raise RemoteSourceError(
                    f"{method} {self.url} timed out after {TIMEOUT}s"
                ) from exc
            except (asyncio.IncompleteReadError, ConnectionError, OSError, EOFError) as exc:
                self._discard(conn)
                if attempt == 0 and reused and isinstance(exc, _STALE_ERRORS):
                    continue
                if isinstance(exc, RemoteSourceError):
                    raise
                raise RemoteSourceError(
                    f"{method} {self.url} failed: {exc}"
                ) from exc
            reusable = resp_headers.get("connection", "").lower() != "close"
            self._release(conn, reusable)
            return status, resp_headers, body
        raise AssertionError("unreachable")  # pragma: no cover

    async def _probe_size(self) -> int:
        """Size the object without a suffix range (``HEAD``, else a 1-byte
        GET): only for an endpoint that refuses the opening read."""
        try:
            status, headers, _body = await self._request("HEAD", {})
            if status == 200 and headers.get("content-length") is not None:
                return int(headers["content-length"])
        except RemoteSourceError:
            pass  # fall through to the ranged probe
        status, headers, body = await self._request("GET", {"Range": "bytes=0-0"})
        self.egress_bytes += len(body)
        if status == 206:
            return _parse_content_range(headers.get("content-range"), self.url)[2]
        if status == 200:
            return len(body)
        raise RemoteSourceError(f"cannot size {self.url}: HTTP {status}")

    async def _request(
        self, method: str, headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """A roundtrip holding one of the pool's slots, with depth accounting."""
        assert self._slots is not None
        async with self._slots:
            self._inflight += 1
            self.inflight_max = max(self.inflight_max, self._inflight)
            try:
                self.n_requests += 1
                return await self._roundtrip(method, headers)
            finally:
                self._inflight -= 1

    def _admit(self) -> None:
        if not self.breaker.allow():
            raise CircuitOpenError(
                f"circuit open for {self.endpoint}: failing fast ({self.url})"
            )

    # ------------------------------------------------------------------ reads

    async def aget(self, offset: int, length: int) -> Tuple[bytes, Optional[int]]:
        """Fetch one range; returns ``(payload, server_declared_crc)``.

        A negative ``offset`` asks for the object's last ``length`` bytes
        as one suffix-range GET — ``aget(-n, n)`` is the opening read.  It
        needs no size (it is what learns it) and returns what the object
        has: fewer bytes when it is shorter than ``n``, the whole body
        from a server that ignores ``Range``, nothing from an endpoint
        that refuses suffix ranges (sized by :meth:`_probe_size` instead).
        """
        if offset >= 0:
            assert self.size is not None, "read before the opening read"
            if length < 0 or offset + length > self.size:
                raise StreamFormatError(
                    f"read of [{offset}, {offset + length}) past remote object "
                    f"end {self.size} ({self.url})"
                )
        if length == 0:
            return b"", None
        self._admit()
        try:
            if offset >= 0:
                result = await self._ranged_get(offset, length)
            else:
                total, data, crc = await self._suffix_get(length)
                if self.size is None:
                    self.size = total
                result = data, crc
        except RETRYABLE_ERRORS:
            self.breaker.record_failure()
            raise
        except asyncio.CancelledError:
            # A cancelled hedge/prefetch is not an endpoint failure.
            raise
        self.breaker.record_success()
        return result

    async def _ranged_get(
        self, offset: int, length: int
    ) -> Tuple[bytes, Optional[int]]:
        status, headers, body = await self._request(
            "GET", {"Range": f"bytes={offset}-{offset + length - 1}"}
        )
        self.egress_bytes += len(body)
        crc = _declared_crc(headers)
        if status == 206:
            start, end, _total = _parse_content_range(
                headers.get("content-range"), self.url
            )
            if start != offset or end != offset + length - 1:
                raise RemoteSourceError(
                    f"Content-Range bytes {start}-{end} does not match "
                    f"requested [{offset}, {offset + length}) ({self.url})"
                )
            if len(body) != length:
                raise RemoteSourceError(
                    f"short payload: wanted {length} B at offset {offset}, "
                    f"got {len(body)} ({self.url})"
                )
            return body, crc
        if status == 200:
            if len(body) < offset + length:
                raise RemoteSourceError(
                    f"full-body response of {len(body)} B cannot cover "
                    f"[{offset}, {offset + length}) ({self.url})"
                )
            # A declared CRC covers the full body, not the slice.
            return body[offset : offset + length], None
        raise RemoteSourceError(
            f"HTTP {status} for range [{offset}, {offset + length}) "
            f"({self.url})"
        )

    async def _suffix_get(self, span: int) -> Tuple[int, bytes, Optional[int]]:
        """One ``bytes=-span`` GET → ``(object total, payload, declared crc)``.

        The payload is the server's answer about the object it holds *now*:
        the last ``min(span, total)`` bytes on a 206, the whole body on a
        200.  A 4xx while the object is still unsized means the endpoint
        refuses suffix ranges; it is sized the slow way and yields no bytes.
        """
        status, headers, body = await self._request(
            "GET", {"Range": f"bytes=-{span}"}
        )
        self.egress_bytes += len(body)
        if status == 206:
            start, end, total = _parse_content_range(
                headers.get("content-range"), self.url
            )
            if end != total - 1 or len(body) != end - start + 1:
                raise RemoteSourceError(
                    f"short tail payload: declared bytes {start}-{end}/{total}, "
                    f"got {len(body)} B ({self.url})"
                )
            return total, body, _declared_crc(headers)
        if status == 200:
            return len(body), body, _declared_crc(headers)
        if 400 <= status < 500 and self.size is None:
            return await self._probe_size(), b"", None
        raise RemoteSourceError(
            f"HTTP {status} for suffix range of {span} B ({self.url})"
        )

    async def aread_tail(self, span: int) -> Tuple[int, bytes]:
        """Freshness probe: ``(total, last span bytes)`` of the object the
        server holds now.  Always a request; no CRC gate and no ladder above
        it — a failed probe just means "freshness unknown"."""
        span = max(1, int(span))
        self._admit()
        try:
            total, body, _crc = await self._suffix_get(span)
        except RETRYABLE_ERRORS:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return total, body[-span:]

    async def aclose(self) -> None:
        self._closed = True
        if self._idle is None:
            return
        while True:
            try:
                conn = self._idle.get_nowait()
            except asyncio.QueueEmpty:
                break
            self._discard(conn)


# ------------------------------------------------------------- the ladder


class _Endpoint:
    """One URL's read path: tamper hook → CRC gate → retry loop.

    Owns the URL's :class:`AsyncHTTPTransport` — its private breaker, its
    counters, its close — and reads through ``tamper(url, transport)``
    when a hook is given (:meth:`~repro.io.faults.FaultInjector.tamper`):
    faults are injected *below* the gate, so injected corruption is caught
    exactly like wire corruption.

    The gate compares each payload against the server-declared CRC that
    travels with it.  A mismatch raises
    :class:`~repro.errors.RemoteIntegrityError`: retryable — re-fetching
    usually heals in-flight corruption — and deliberately **not** a
    :class:`StreamFormatError`, because the stored stream is presumed
    intact.  A range without a declared CRC passes unverified.

    The loop attempts each read up to ``1 + RETRIES`` times against
    :data:`RETRYABLE_ERRORS`, sleeping :func:`jittered_backoff` between
    attempts (``await asyncio.sleep`` — a retrying range never blocks the
    other in-flight ranges).  It stops early in two cases:

    * :class:`~repro.errors.CircuitOpenError` — the transport refused
      without trying, and no retry can succeed before the breaker's
      cooldown; re-raised at once (a mirror set still fails over on it);
    * the request's :data:`~repro.io.remote.REQUEST_DEADLINE` — a read
      that starts after it fails fast, and a retry whose backoff would
      cross it re-raises the underlying error instead of sleeping.

    The freshness probe (``aread_tail``) goes straight to the transport —
    no hook, gate or loop: a failed probe means "freshness unknown".
    ``clock`` is injectable; tests drive the sleeps on a virtual-time loop.
    """

    def __init__(
        self,
        url: str,
        *,
        tamper: Optional[Callable[[str, object], object]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.url = url
        self.transport = AsyncHTTPTransport(url, breaker=CircuitBreaker(clock=clock))
        self._wire = self.transport if tamper is None else tamper(url, self.transport)
        self._clock = clock
        self.retries = 0
        self.retry_delays: List[float] = []
        self.crc_verified = 0
        self.crc_mismatches = 0

    async def aread_range(self, offset: int, length: int) -> bytes:
        if not before_deadline(clock=self._clock):
            raise RemoteSourceError(
                f"request deadline exceeded before reading "
                f"[{offset}, {offset + length}) from {self.url}"
            )
        attempt = 0
        while True:
            try:
                return await self._verified(offset, length)
            except CircuitOpenError:
                raise
            except RETRYABLE_ERRORS:
                attempt += 1
                delay = jittered_backoff(f"{self.url}@{offset}", attempt)
                if attempt > RETRIES or not before_deadline(delay, self._clock):
                    raise
                self.retries += 1
                self.retry_delays.append(delay)
                if delay > 0.0:
                    await asyncio.sleep(delay)

    async def _verified(self, offset: int, length: int) -> bytes:
        data, expected = await self._wire.aget(offset, length)
        if expected is not None:
            actual = zlib.crc32(data)
            if actual != expected:
                self.crc_mismatches += 1
                raise RemoteIntegrityError(
                    f"payload CRC mismatch for [{offset}, {offset + length}): "
                    f"got {actual:#010x}, server declared {expected:#010x}"
                )
            self.crc_verified += 1
        return data

    async def aread_tail(self, span: int) -> Tuple[int, bytes]:
        return await self.transport.aread_tail(span)

    async def aclose(self) -> None:
        await self.transport.aclose()


class _MirrorSet:
    """Failover + hedged reads across the endpoints of one object.

    It sits on top of every stack: a single URL is a set of one, which
    never fails over and never hedges.  Endpoints are ranked by health —
    consecutive failures first, then latency EWMA
    (:class:`~repro.io.remote._Mirror`) — and a read walks the ranking:
    the healthiest endpoint serves, a retryable failure *fails over* to
    the next (counted), only total failure propagates (the last error).
    All endpoints must agree on ``size``.

    **Hedged reads** bound tail latency: the primary read runs as a task,
    and once it has outlived the observed slowest-decile
    (:data:`HEDGE_QUANTILE`) latency — known once
    :data:`HEDGE_MIN_SAMPLES` reads have been timed — the same range fires
    at the next-healthiest endpoint.  First payload wins; the loser is
    **cancelled** — which aborts the request and recycles its connection,
    so a hedge costs nothing unless the loser finishes in the same tick
    (those bytes land in ``hedge_wasted_bytes``, never in the consumed
    trace).  Hedging engages only while the backup is healthy.

    :meth:`stats` is the stack's one stats builder: the endpoints'
    counters summed, plus the set's own.
    """

    def __init__(
        self,
        endpoints: Sequence[_Endpoint],
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # The opening reads sized the transports.
        sizes = {int(endpoint.transport.size) for endpoint in endpoints}
        if len(sizes) != 1:
            raise RemoteSourceError(
                f"mirrors disagree on object size: {sorted(sizes)}"
            )
        self._mirrors = [_Mirror(endpoint) for endpoint in endpoints]
        self.size = sizes.pop()
        self._clock = clock
        self._latencies: List[float] = []
        self.failovers = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.hedge_cancelled = 0
        self.hedge_wasted_bytes = 0

    def _ranked(self) -> List[_Mirror]:
        return sorted(self._mirrors, key=_Mirror.health_key)

    def _hedge_threshold(self) -> Optional[float]:
        if len(self._latencies) < HEDGE_MIN_SAMPLES:
            return None
        ordered = sorted(self._latencies)
        index = min(len(ordered) - 1, int(HEDGE_QUANTILE * len(ordered)))
        return ordered[index]

    def _record(self, mirror: _Mirror, ok: bool, seconds: Optional[float]) -> None:
        mirror.record(ok, seconds)
        if ok and seconds is not None:
            self._latencies.append(seconds)
            if len(self._latencies) > 64:
                del self._latencies[0]

    async def aread_range(self, offset: int, length: int) -> bytes:
        ranked = self._ranked()
        last_error: Optional[BaseException] = None
        for rank, mirror in enumerate(ranked):
            backup = ranked[rank + 1] if rank + 1 < len(ranked) else None
            threshold = self._hedge_threshold()
            try:
                if (
                    threshold is not None
                    and backup is not None
                    and backup.failures == 0
                ):
                    return await self._hedged(mirror, backup, offset, length, threshold)
                return await self._timed(mirror, offset, length)
            except RETRYABLE_ERRORS as exc:
                last_error = exc
                if backup is not None:
                    self.failovers += 1
        assert last_error is not None
        raise last_error

    async def _timed(self, mirror: _Mirror, offset: int, length: int) -> bytes:
        start = self._clock()
        try:
            data = await mirror.source.aread_range(offset, length)
        except RETRYABLE_ERRORS:
            self._record(mirror, False, None)
            raise
        self._record(mirror, True, self._clock() - start)
        return data

    async def _hedged(
        self,
        primary: _Mirror,
        backup: _Mirror,
        offset: int,
        length: int,
        threshold: float,
    ) -> bytes:
        owners: Dict[asyncio.Task, _Mirror] = {}
        primary_task = asyncio.ensure_future(self._timed(primary, offset, length))
        owners[primary_task] = primary
        done, pending = await asyncio.wait({primary_task}, timeout=threshold)
        if not done:
            self.hedges += 1
            backup_task = asyncio.ensure_future(self._timed(backup, offset, length))
            owners[backup_task] = backup
        first_error: Optional[BaseException] = None
        pending = set(owners)
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            winner: Optional[asyncio.Task] = None
            for task in done:
                if task.cancelled():
                    continue
                error = task.exception()
                if error is None and winner is None:
                    winner = task
                elif error is None:
                    # A loser that finished in the same tick: its bytes
                    # hit the wire for nothing.
                    self.hedge_wasted_bytes += length
                elif first_error is None:
                    first_error = error
            if winner is not None:
                if owners[winner] is backup:
                    self.hedge_wins += 1
                for loser in pending:
                    if loser.cancel():
                        self.hedge_cancelled += 1
                if pending:
                    await asyncio.wait(pending)
                return winner.result()
        assert first_error is not None
        if isinstance(first_error, RETRYABLE_ERRORS):
            raise first_error
        raise RemoteSourceError(  # pragma: no cover - non-retryable loser
            f"hedged read failed: {first_error}"
        )

    async def aread_tail(self, span: int) -> Tuple[int, bytes]:
        last_error: Optional[BaseException] = None
        for mirror in self._ranked():
            try:
                return await mirror.source.aread_tail(span)
            except RETRYABLE_ERRORS as exc:
                last_error = exc
        assert last_error is not None
        raise last_error

    def stats(self) -> dict:
        endpoints = [mirror.source for mirror in self._mirrors]
        wires = [endpoint.transport for endpoint in endpoints]
        return {
            "requests": sum(wire.n_requests for wire in wires),
            "egress_bytes": sum(wire.egress_bytes for wire in wires),
            "connections_opened": sum(wire.connections_opened for wire in wires),
            # Concurrency depth is a per-endpoint peak, not additive.
            "inflight_max": max(wire.inflight_max for wire in wires),
            "breaker": {wire.endpoint: wire.breaker.state for wire in wires},
            "retries": sum(endpoint.retries for endpoint in endpoints),
            "crc_verified": sum(endpoint.crc_verified for endpoint in endpoints),
            "crc_mismatches": sum(endpoint.crc_mismatches for endpoint in endpoints),
            "failovers": self.failovers,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "hedge_cancelled": self.hedge_cancelled,
            "hedge_wasted_bytes": self.hedge_wasted_bytes,
            "mirrors": [
                {
                    "label": mirror.source.url,
                    "failures": mirror.failures,
                    "latency_ewma_s": mirror.latency,
                    "reads": mirror.reads,
                }
                for mirror in self._mirrors
            ],
        }

    async def aclose(self) -> None:
        for mirror in self._mirrors:
            await mirror.source.aclose()


# -------------------------------------------------------------------- facade


class AsyncRangeSource:
    """Synchronous facade over a remote stack (its :class:`_MirrorSet`).

    Speaks the plain byte-range duck type (``size`` / ``read_range`` /
    ``read_tail`` / ``stats`` / ``close``) by running coroutines on the
    owning :class:`EventLoopThread`, so every existing consumer —
    container reader, prefetch source, engine, service, scheduler — works
    unchanged.  Also exposes the async side (``aread_range`` +
    ``supports_async``) so :class:`AsyncPrefetcher` can dispatch *without*
    a thread hop per range.

    ``opening`` is the payload of the opening read — the object's last
    bytes, already CRC-checked by the ladder.  A read that falls wholly
    inside it is answered from memory (the container sniff, tail word,
    footer and manifest of a normal archive); one that runs into it (a
    fetch op of the last shard) sends only the part before it to the wire.
    ``read_tail`` never looks at it: revalidation must see the object the
    server holds *now*.
    """

    is_remote_source = True
    supports_async = True

    def __init__(self, mirrors: _MirrorSet, loop: EventLoopThread, opening: bytes) -> None:
        self._mirrors = mirrors
        self._loop = loop
        self.size = mirrors.size
        self._opening = opening
        self._opening_start = self.size - len(opening)

    @property
    def loop_thread(self) -> EventLoopThread:
        return self._loop

    def _split(self, offset: int, length: int) -> Tuple[int, bytes]:
        """``(wire, tail)``: the read's first ``wire`` bytes must be fetched,
        the opening window holds the rest (``tail``)."""
        cut = max(offset, self._opening_start)
        if length < 0 or offset + length > self.size or cut >= offset + length:
            return length, b""
        start = cut - self._opening_start
        return cut - offset, self._opening[start : start + offset + length - cut]

    def read_range(self, offset: int, length: int) -> bytes:
        wire, tail = self._split(offset, length)
        if not wire:
            return tail
        return self._loop.call(self._mirrors.aread_range(offset, wire)) + tail

    async def aread_range(self, offset: int, length: int) -> bytes:
        """Coroutine view for async-aware callers (no thread hop)."""
        wire, tail = self._split(offset, length)
        if not wire:
            return tail
        return await self._mirrors.aread_range(offset, wire) + tail

    def read_tail(self, span: int) -> Tuple[int, bytes]:
        return self._loop.call(self._mirrors.aread_tail(span))

    def stats(self) -> dict:
        return self._mirrors.stats()

    def close(self) -> None:
        if self._loop.alive:
            try:
                self._loop.call(self._mirrors.aclose(), timeout=5.0)
            except Exception:  # pragma: no cover - close is best-effort
                pass

    def __enter__(self) -> "AsyncRangeSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_remote_source(
    url: str,
    mirrors: Sequence[str] = (),
    *,
    tamper: Optional[Callable[[str, object], object]] = None,
    clock: Callable[[], float] = time.monotonic,
    loop: Optional[EventLoopThread] = None,
) -> AsyncRangeSource:
    """Build the resilient stack over one URL plus its replica ``mirrors``.

    One :class:`_Endpoint` per URL — its transport with a private breaker,
    the ``tamper`` hook (:meth:`~repro.io.faults.FaultInjector.tamper`),
    the CRC gate and the retry loop — all under one :class:`_MirrorSet`.
    The wire's knobs are the module constants (:data:`CONNECTIONS`,
    :data:`TIMEOUT`, :data:`RETRIES`) and :mod:`repro.io.remote`'s
    (the backoff schedule, the breaker's threshold and cooldown);
    ``clock`` drives the breakers, the deadline checks and the hedge
    timing.

    Opening costs **one round trip**: each endpoint reads the object's
    last :data:`OPENING_WINDOW` bytes through its ladder — a range like
    any other, so it is CRC-checked, retried, feeds the breaker and meets
    injected faults — and that reply both sizes the object and becomes the
    facade's opening window.  Endpoints open concurrently; one that fails
    its opening read is dropped — only every endpoint failing propagates.
    Returns the synchronous :class:`AsyncRangeSource` facade bound to
    ``loop`` (the process-shared loop thread by default), which speaks
    plain ``size``/``read_range`` — everything upstream is oblivious to
    the networking underneath.
    """
    loop = loop or EventLoopThread.shared()

    async def opened(endpoint_url: str) -> Tuple[_Endpoint, bytes]:
        endpoint = _Endpoint(endpoint_url, tamper=tamper, clock=clock)
        await endpoint.transport.open()
        try:
            return endpoint, await endpoint.aread_range(-OPENING_WINDOW, OPENING_WINDOW)
        except BaseException:
            await endpoint.aclose()
            raise

    async def build() -> Tuple[_MirrorSet, bytes]:
        outcomes = await asyncio.gather(
            *(opened(endpoint) for endpoint in (url, *mirrors)),
            return_exceptions=True,
        )
        alive = [o for o in outcomes if not isinstance(o, BaseException)]
        errors = [o for o in outcomes if isinstance(o, BaseException)]
        fatal = next((e for e in errors if not isinstance(e, OSError)), None)
        if fatal is not None or not alive:
            for endpoint, _opening in alive:
                await endpoint.aclose()
            raise fatal if fatal is not None else errors[0]
        # Every replica read its own tail; they hold the same object (sizes
        # are checked), so the first survivor's window serves.
        return _MirrorSet([e for e, _opening in alive], clock=clock), alive[0][1]

    top, opening = loop.call(build())
    return AsyncRangeSource(top, loop, opening)


# ---------------------------------------------------------------- prefetcher


def coalesce_ops(ops: Sequence[Tuple]) -> List[Tuple[int, int, List[Tuple]]]:
    """Merge ``(offset, length, ...)`` ops into contiguous fetch batches.

    Ops are sorted by offset and merged while the next op touches or
    overlaps the running extent and the merged extent stays within
    :data:`MAX_BATCH`.  Returns ``[(start, total_length, [op, ...]), ...]``
    — each member op's payload is a slice of its batch, so one GET serves
    the whole run and is split back per-op client-side (the loopback
    server answers true multi-range requests with a full 200 body, so
    batches are always a single contiguous range).
    """
    batches: List[Tuple[int, int, List[Tuple]]] = []
    for op in sorted(ops, key=lambda item: (item[0], item[1])):
        offset, length = int(op[0]), int(op[1])
        if batches:
            start, end, members = batches[-1]
            merged_end = max(end, offset + length)
            if offset <= end and merged_end - start <= MAX_BATCH:
                members.append(op)
                batches[-1] = (start, merged_end, members)
                continue
        batches.append((offset, offset + length, [op]))
    return [(start, end - start, members) for start, end, members in batches]


def coalesce_burst(
    op_groups: Sequence[Sequence[Tuple]], max_requests: int
) -> List[List[Tuple[int, int, List[Tuple]]]]:
    """Price one burst in round trips: :func:`coalesce_ops` per group,
    bridging just enough gaps that the burst fits in ``max_requests`` GETs.

    Each group is the ops of one address space (one shard block, one
    stream); gaps exist only inside a group.  Touching ops always merge.
    While the burst would still need more GETs than ``max_requests`` — the
    source's pooled connections, i.e. more than one wave of round trips —
    the smallest remaining gap is closed first, never one wider than
    :data:`MAX_MERGE_GAP` nor into an extent past :data:`MAX_BATCH`: a
    skipped plane or two of over-fetch costs far less than the round trip
    it saves; the bridged bytes ride along and are dropped.  A burst that
    already fits, and every local-file read, is left exactly as planned.
    """
    batches = [coalesce_ops(ops) for ops in op_groups]
    excess = sum(len(group) for group in batches) - max_requests
    if excess <= 0:
        return batches
    # Gaps are independent, so "smallest first until it fits" is simply the
    # ``excess`` smallest; ``(group, index)`` names the gap after a batch.
    gaps = sorted(
        (gap, group, index)
        for group, run in enumerate(batches)
        for index, gap in enumerate(b[0] - a[0] - a[1] for a, b in zip(run, run[1:]))
        if 0 < gap <= MAX_MERGE_GAP
    )
    close = {(group, index) for _gap, group, index in gaps[:excess]}
    merged: List[List[Tuple[int, int, List[Tuple]]]] = []
    for group, run in enumerate(batches):
        out: List[Tuple[int, int, List[Tuple]]] = []
        for index, (start, total, members) in enumerate(run):
            if (group, index - 1) in close and start + total - out[-1][0] <= MAX_BATCH:
                first, _total, held = out[-1]
                out[-1] = (first, start + total - first, held + members)
            else:
                out.append((start, total, members))
        merged.append(out)
    return merged


class AsyncPrefetcher:
    """The event-loop prefetcher of :class:`~repro.retrieval.prefetch.PrefetchSource`.

    ``submit(source.read_range, offset, length)`` — ``source`` being
    async-capable (``supports_async``, i.e. it has the coroutine
    ``aread_range``) — returns a ``concurrent.futures.Future``.
    Submits are collected into *bursts*: everything submitted inside one
    :meth:`burst` block (``PrefetchSource.prime`` opens one per call; the
    engine opens one around all shards' plans) reaches the loop thread as
    a single batch, where :func:`coalesce_burst` merges it — per source,
    touching ranges always, the smallest gaps too while the batch would
    need more GETs than :data:`CONNECTIONS` — and every merged range is
    fetched as a concurrent task: one wave of round trips.  A wave is
    sized by the connection pool, not by a depth: local files never come
    here (the engine wraps only sources that ``supports_async``).

    Each submit records the submitting request's
    :data:`~repro.io.remote.REQUEST_DEADLINE`, and a merged GET runs under
    the latest deadline among its members — under none if any member has
    none — so no request's deadline cuts short another request's read.

    :meth:`close` cancels queued and in-flight work (cancelled/raised
    futures are exactly what ``PrefetchSource`` already handles by a
    direct read) but never stops a *shared* loop — other sources and
    prefetchers keep running.
    """

    def __init__(self, *, loop: Optional[EventLoopThread] = None) -> None:
        self._loop = loop or EventLoopThread.shared()
        self._lock = threading.Lock()
        self._pending: List[Tuple[object, int, int, Future, Optional[float]]] = []
        self._bursts = 0  # open burst() blocks: submits wait for the last to exit
        self._flush_queued = False
        self._tasks: set = set()  # touched only on the loop thread
        self._closed = False
        self.batches = 0
        self.batched_ops = 0

    @property
    def loop_thread(self) -> EventLoopThread:
        return self._loop

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, fn, offset: int, length: int) -> Future:
        if self._closed or not self._loop.alive:
            # The shut-down executor contract, which PrefetchSource
            # catches and degrades around.
            raise RuntimeError("cannot schedule new futures after shutdown")
        future: Future = Future()
        with self._lock:
            self._pending.append(
                (fn.__self__, int(offset), int(length), future, REQUEST_DEADLINE.get())
            )
        self._queue_flush()
        return future

    @contextmanager
    def burst(self) -> Iterator[None]:
        """Hold every submit made inside the block for one joint flush.

        Without it a flush is queued by the first submit and the loop
        thread drains whatever has arrived when it wakes — a multi-shard
        plan then trickles out as several partial batches, each merged and
        priced on its own.  Blocks nest; nothing may *wait* on a submitted
        future inside one.
        """
        with self._lock:
            self._bursts += 1
        try:
            yield
        finally:
            with self._lock:
                self._bursts -= 1
            self._queue_flush()

    def _queue_flush(self) -> None:
        with self._lock:
            if self._bursts or self._flush_queued or not self._pending:
                return
            self._flush_queued = True
        try:
            self._loop.call_soon(self._flush)
        except RuntimeError:  # the loop stopped under us: nothing will run
            self._flush()

    def _flush(self) -> None:
        # Runs on the loop thread: drain the burst, batch per owner.
        with self._lock:
            pending, self._pending = self._pending, []
            self._flush_queued = False
        if self._closed or not self._loop.alive:
            for _owner, _offset, _length, future, _deadline in pending:
                future.cancel()
            return
        groups: Dict[int, Tuple[object, List[Tuple]]] = {}
        for owner, offset, length, future, deadline in pending:
            groups.setdefault(id(owner), (owner, []))[1].append(
                (offset, length, future, deadline)
            )
        # One wave is as many GETs as the remote stack pools connections.
        batches = coalesce_burst(
            [ops for _owner, ops in groups.values()], CONNECTIONS
        )
        loop = asyncio.get_running_loop()
        for (owner, _ops), owner_batches in zip(groups.values(), batches):
            for start, total, members in owner_batches:
                task = loop.create_task(self._fetch(owner, start, total, members))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
                self.batches += 1
                self.batched_ops += len(members)

    async def _fetch(
        self,
        owner,
        start: int,
        total: int,
        members: List[Tuple[int, int, Future, Optional[float]]],
    ) -> None:
        # This task runs in its own context: the variable is set for this
        # GET only.  (``create_task(context=)`` would need Python 3.11.)
        deadlines = [deadline for _offset, _length, _future, deadline in members]
        REQUEST_DEADLINE.set(None if None in deadlines else max(deadlines))
        try:
            data = await owner.aread_range(start, total)
        except asyncio.CancelledError:
            for _offset, _length, future, _deadline in members:
                future.cancel()
            raise
        except BaseException as exc:
            for _offset, _length, future, _deadline in members:
                try:
                    future.set_exception(exc)
                except Exception:  # already cancelled by close()
                    pass
        else:
            for offset, length, future, _deadline in members:
                try:
                    future.set_result(data[offset - start : offset - start + length])
                except Exception:  # already cancelled by close()
                    pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            pending, self._pending = self._pending, []
        for _owner, _offset, _length, future, _deadline in pending:
            future.cancel()
        if self._loop.alive:
            self._loop.call_soon(self._cancel_tasks)

    def _cancel_tasks(self) -> None:
        for task in list(self._tasks):
            task.cancel()
