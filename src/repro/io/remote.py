"""Remote byte-range reads: the parts that do no I/O.

The whole retrieval stack — planner, prefetcher, decode, service,
scheduler — talks to storage through the two-method byte-range interface
(``size`` + ``read_range``), so serving a stream or container over a
network needs exactly one thing: a byte-range source whose backend is a
URL.  :func:`repro.io.aio.open_remote_source` builds it — one event-loop
transport under one resilience ladder.  This module holds what that
ladder, the serving layer and the range server share without touching a
socket:

* :func:`is_url` — the CLI/service switch between a path and a URL;
* the one retry schedule of both retry ladders (the remote endpoint's and
  the service's): :func:`jittered_backoff` over :data:`BACKOFF` /
  :data:`BACKOFF_CAP`, and :func:`before_deadline`, which stops a ladder
  whose next sleep would cross :data:`REQUEST_DEADLINE`, the deadline of
  the request being served;
* :class:`CircuitBreaker` — per-endpoint failure gate: after
  :data:`BREAKER_THRESHOLD` consecutive failures the endpoint is *open*
  (reads fail fast without touching the network) until
  :data:`BREAKER_COOLDOWN` elapses and a half-open probe is allowed
  through;
* :func:`find_remote_source` — walks a wrapper chain (prefetch sources,
  container readers, block sources) down to the remote stack so the
  serving layer can report retries, hedges, failovers, breaker states and
  egress bytes in each request's trace;
* :func:`remote_fingerprint` — session identity of a remote object.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextvars import ContextVar
from typing import Callable, Optional, Tuple

from repro.errors import RemoteSourceError, StreamFormatError

__all__ = [
    "CRC_HEADER",
    "REQUEST_DEADLINE",
    "CircuitBreaker",
    "before_deadline",
    "find_remote_source",
    "is_url",
    "jittered_backoff",
    "remote_fingerprint",
]

#: Response header carrying the CRC32 of the (intended) payload bytes.
#: Emitted by :mod:`repro.io.rangeserver`; any mirror may add it.
CRC_HEADER = "X-Range-Crc32"

#: Errors a retry can plausibly heal: transport failures (`OSError` covers
#: :class:`RemoteSourceError`, timeouts, resets) and short/corrupt payloads
#: surfaced as :class:`StreamFormatError` by stricter layers above.
#: Configuration mistakes are excluded — they fail identically every time.
RETRYABLE_ERRORS = (StreamFormatError, OSError)

#: Tail bytes hashed into a session fingerprint — :func:`remote_fingerprint`
#: and the service's local ``file_fingerprint`` alike.  The container footer
#: (directory extents plus the JSON manifest: shard offsets, error bound,
#: profile) lives at the end of the file, so any rewrite that changes *what
#: the bytes mean* lands in this window even when size and mtime do not
#: move (coarse-mtime filesystems, same-size rewrites in fast tests).
FINGERPRINT_TAIL_BYTES = 4096

#: Retry backoff, seconds: the first retry's base delay and the cap of the
#: exponential (:func:`jittered_backoff`).  0 disables pacing.
BACKOFF = 0.05
BACKOFF_CAP = 1.0

#: Consecutive failures that open an endpoint's :class:`CircuitBreaker`,
#: and the seconds it stays open before one half-open probe.
BREAKER_THRESHOLD = 5
BREAKER_COOLDOWN = 1.0

#: The monotonic deadline of the request being served (``None``: none).
#: ``RetrievalService.get`` sets it; the service's retry ladder and every
#: remote endpoint's read it, so it travels with the request's own reads
#: (:class:`~repro.io.aio.AsyncPrefetcher` carries it into its GETs).
REQUEST_DEADLINE: ContextVar[Optional[float]] = ContextVar(
    "repro_request_deadline", default=None
)


def is_url(path) -> bool:
    """True for ``http(s)://`` strings (the CLI/service remote switch)."""
    return isinstance(path, str) and path.startswith(("http://", "https://"))


def jittered_backoff(key: str, attempt: int) -> float:
    """Backoff before retry ``attempt`` (1-based): capped exponential,
    deterministically jittered.

    ``BACKOFF * 2^(attempt-1)`` clamped to ``BACKOFF_CAP``, scaled into
    ``[0.5, 1.0]`` by a CRC of ``key:attempt`` — reproducible traces and
    assertable tests, yet spread across keys so a burst of failures does
    not retry in lockstep.  The single backoff scheme shared by the
    service's retry ladder and the remote stack's.
    """
    if BACKOFF <= 0.0:
        return 0.0
    raw = min(BACKOFF_CAP, BACKOFF * (2.0 ** (attempt - 1)))
    seed = zlib.crc32(f"{key}:{attempt}".encode("utf-8")) & 0xFFFF
    return raw * (0.5 + 0.5 * (seed / 0xFFFF))


def before_deadline(
    margin: float = 0.0, clock: Callable[[], float] = time.monotonic
) -> bool:
    """False once ``clock() + margin`` reaches the request's deadline.

    The one deadline rule of both retry ladders: a read does not start
    after :data:`REQUEST_DEADLINE` (``margin`` 0), and a retry does not
    sleep its backoff (``margin`` = the delay) across it.  True when the
    request has no deadline.
    """
    deadline = REQUEST_DEADLINE.get()
    return deadline is None or clock() + margin < deadline


class CircuitBreaker:
    """Per-endpoint failure gate with half-open probing.

    :data:`BREAKER_THRESHOLD` consecutive failures *open* the breaker:
    :meth:`allow` returns False (callers fail fast with zero network cost)
    until :data:`BREAKER_COOLDOWN` seconds pass, when exactly one probe is
    let through (*half-open*).  A successful probe closes the breaker; a
    failed one re-opens it for another cooldown.  Thread-safe; ``clock`` is
    injectable so tests drive the cooldown without sleeping.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        """``"closed"`` | ``"open"`` | ``"half-open"`` (diagnostic view)."""
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._probing or self._clock() - self._opened_at >= BREAKER_COOLDOWN:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """True if a request may proceed (claims the probe when half-open)."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._probing:
                return False  # one probe at a time
            if self._clock() - self._opened_at >= BREAKER_COOLDOWN:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._failures >= BREAKER_THRESHOLD:
                self._opened_at = self._clock()


def _parse_content_range(value: Optional[str], url: str) -> Tuple[int, int, int]:
    """``bytes start-end/total`` → ``(start, end, total)`` or raise."""
    if value is None:
        raise RemoteSourceError(f"206 response without Content-Range ({url})")
    try:
        unit, _, extent = value.strip().partition(" ")
        span, _, total_text = extent.partition("/")
        start_text, _, end_text = span.partition("-")
        if unit != "bytes":
            raise ValueError(unit)
        return int(start_text), int(end_text), int(total_text)
    except ValueError:
        raise RemoteSourceError(
            f"unparseable Content-Range {value!r} ({url})"
        ) from None


# ---------------------------------------------------------------- utilities


def find_remote_source(obj):
    """Walk a wrapper chain down to the remote stack (or ``None``).

    Follows the conventional private links — ``_inner`` (prefetch / fault
    wrappers), ``_reader`` (block sources), ``_source`` (container
    readers) — until an object marked ``is_remote_source`` appears.  The
    serving layer uses this to harvest ``stats()`` deltas for traces
    without every intermediate layer having to know about networking.
    """
    seen = set()
    while obj is not None and id(obj) not in seen:
        seen.add(id(obj))
        if getattr(obj, "is_remote_source", False):
            return obj
        obj = (
            getattr(obj, "_inner", None)
            or getattr(obj, "_reader", None)
            or getattr(obj, "_source", None)
        )
    return None


def remote_fingerprint(source, *, revalidate: bool = False) -> Tuple[int, int, int]:
    """Session identity of a remote object: ``(size, 0, tail_crc)``.

    The remote analogue of the service's ``file_fingerprint``: no mtime
    exists over HTTP, so the witness is the CRC of the footer/manifest
    tail window alone.

    A session's *first* fingerprint reads that window through
    ``read_range`` — a freshly opened stack answers it from its opening
    read, at no request.  ``revalidate=True`` is the freshness probe of an
    existing session: stacks exposing ``read_tail`` are asked with a
    suffix range, which always goes to the wire and which the server
    answers against the object it holds *now* — so a replaced object with
    a **different size** still yields a cleanly different fingerprint
    instead of an out-of-bounds read error against the stack's
    construction-time size.
    """
    probe = getattr(source, "read_tail", None) if revalidate else None
    if probe is not None:
        size, tail = probe(FINGERPRINT_TAIL_BYTES)
    else:
        size = int(source.size)
        span = min(size, FINGERPRINT_TAIL_BYTES)
        tail = source.read_range(size - span, span)
    return (int(size), 0, zlib.crc32(tail))
