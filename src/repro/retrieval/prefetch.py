"""Stage 2 of the retrieval pipeline: the prime cache of remote reads.

A :class:`PrefetchSource` sits between a
:class:`~repro.core.stream.CompressedStore` and a byte-range source whose
reads cost a round trip — one that ``supports_async``, i.e. a container
block (or bare stream) over the remote stack of :mod:`repro.io.aio` — and
serves reads out of a cache of *primed* ranges fetched by the event-loop
:class:`~repro.io.aio.AsyncPrefetcher`:

* ``prime(ranges)`` submits background reads for the planned, coalesced
  ranges of a :class:`~repro.retrieval.plan.FetchOp` list, skipping (or
  splitting around) anything already primed — a range is physically read
  **at most once**, which is what keeps the never-re-read property intact
  under speculative prefetching;
* ``read_range(offset, length)`` returns the bytes from the cache when a
  primed range covers them (blocking only if that read is still in flight)
  and falls through to a direct synchronous read otherwise.

It is the remote path, not a second prefetcher: a local file has no
wrapper between the store and its block source (the page cache is the
source; a thread prefetcher measured 0.92× / 0.87× of the synchronous
read and was deleted), and ``prefetch=0`` is the serial oracle — one range
on the wire at a time.  The one construction site is
:meth:`repro.retrieval.engine.RetrievalEngine.open_sources`.

The cache keeps no record of what was *consumed* — that is the store's
``trace``, identical with and without it, so a speculative fetch of the
next fidelity rung is attributed to the request that eventually uses it
(or to none at all).  ``bytes_fetched`` counts the physical reads,
speculation included — the honest I/O figure.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future
from typing import List, Optional, Sequence, Tuple

__all__ = ["PrefetchSource"]

#: The ``prefetch`` value of a *remote* source when nobody said otherwise
#: (see :func:`default_prefetch_depth`): 0 = serial, positive = multiplexed.
DEFAULT_PREFETCH_DEPTH = 4


def default_prefetch_depth(remote: bool) -> int:
    """The depth used when neither the ``prefetch`` keyword nor the
    ``--prefetch`` flag sets one (a codec profile carries no runtime knob).

    A remote source read synchronously pays one round trip per plane
    block, so it is multiplexed (:data:`DEFAULT_PREFETCH_DEPTH`; any
    positive value means the same — a wave is sized by the connection
    pool); a local file reads synchronously whatever the value.  The one
    rule behind :class:`~repro.io.dataset.ChunkedDataset` and the CLI.
    """
    return DEFAULT_PREFETCH_DEPTH if remote else 0


class _Primed:
    """One primed interval: ``[start, end)`` plus its (pending) bytes."""

    __slots__ = ("start", "end", "future", "consumed", "refunded")

    def __init__(self, start: int, end: int, future: Future) -> None:
        self.start = start
        self.end = end
        self.future = future
        self.consumed = 0
        # A failed prime's charge is refunded exactly once, even though the
        # done-callback and a concurrent read_range miss both try.
        self.refunded = False

    def covers(self, offset: int, length: int) -> bool:
        return self.start <= offset and offset + length <= self.end


class PrefetchSource:
    """Byte-range source wrapper with asynchronous range priming."""

    def __init__(self, inner, prefetcher) -> None:
        self._inner = inner
        self._prefetcher = prefetcher
        self.size = inner.size
        #: Physical bytes read, speculative primes included.
        self.bytes_fetched = 0
        self._primed: List[_Primed] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ prime

    def prime(self, ranges: Sequence[Tuple[int, int]]) -> int:
        """Schedule background reads of ``ranges``; returns bytes scheduled.

        Ranges (coalesced fetch-op extents) are split around anything
        already primed, so re-priming — e.g. a speculative rung followed by
        the actual request's plan — never re-reads a byte.

        A prefetcher that has been closed (possibly by another request
        sharing it, mid-prime) refuses new futures with ``RuntimeError``,
        which ends the prime early — the unscheduled ranges simply fall
        through to direct synchronous reads in :meth:`read_range`,
        bitwise-identical.
        """
        if self._prefetcher.closed:
            return 0
        scheduled = 0
        submitted: List[_Primed] = []
        shut_down = False
        # One burst per call: the prefetcher then sees (and merges) all of
        # these ranges together, not as they trickle in.
        with self._lock, self._prefetcher.burst():
            for offset, length in ranges:
                if shut_down:
                    break
                for start, end in self._gaps(offset, offset + length):
                    try:
                        future = self._prefetcher.submit(
                            self._inner.read_range, start, end - start
                        )
                    except RuntimeError:
                        # Shut down between the closed check and the
                        # submit: stop priming; nothing was charged for
                        # this range and reads stay synchronous.
                        shut_down = True
                        break
                    primed = _Primed(start, end, future)
                    self._primed.append(primed)
                    self.bytes_fetched += end - start
                    scheduled += end - start
                    submitted.append(primed)
        # Callbacks attach outside the lock: an already-finished future runs
        # its callback inline, and _refund_if_failed takes the lock itself.
        for primed in submitted:
            primed.future.add_done_callback(
                lambda _future, p=primed: self._refund_if_failed(p)
            )
        return scheduled

    def _gaps(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-ranges of ``[start, end)`` not covered by primed intervals."""
        gaps: List[Tuple[int, int]] = []
        cursor = start
        for interval in sorted(self._primed, key=lambda p: p.start):
            if interval.end <= cursor or interval.start >= end:
                continue
            if interval.start > cursor:
                gaps.append((cursor, interval.start))
            cursor = max(cursor, interval.end)
        if cursor < end:
            gaps.append((cursor, end))
        return gaps

    def _refund_if_failed(self, primed: _Primed) -> None:
        """Refund a prime whose read never produced bytes (once, ever).

        Runs as a future done-callback *and* from a consuming read that hit
        the failure — whichever comes first wins.  A cancelled future never
        ran; a raising future fetched nothing usable; both give back the
        prime-time ``bytes_fetched`` charge and drop the dead interval so a
        re-prime (or a later direct read) may try the range again.
        """
        future = primed.future
        if not future.cancelled() and future.exception() is None:
            return
        with self._lock:
            if primed.refunded:
                return
            primed.refunded = True
            self.bytes_fetched -= primed.end - primed.start
            try:
                self._primed.remove(primed)
            except ValueError:  # pragma: no cover - already dropped
                pass

    # ------------------------------------------------------------------ reads

    def read_range(self, offset: int, length: int) -> bytes:
        """Serve one consumed range: cache hit, in-flight wait, or direct read."""
        hit = parts = None
        if self._primed:  # else a plain miss: no lock, no scans
            with self._lock:
                hit = next(
                    (p for p in self._primed if p.covers(offset, length)), None
                )
                parts = None if hit is not None else self._tiling(offset, length)
        if hit is None and parts is not None:
            # The range straddles adjacent primed intervals (e.g. a header
            # prime split the first plan op in two): stitch it from the
            # pieces rather than re-reading bytes that are already on the
            # wire — the never-re-read property holds across splits.
            chunk = self._stitched(offset, length, parts)
            if chunk is not None:
                return chunk
        if hit is None:
            # Charge only after the read succeeds: a raising source must not
            # inflate the physical-bytes figure with bytes never fetched.
            data = self._inner.read_range(offset, length)
            with self._lock:
                self.bytes_fetched += length
            return data
        try:
            data = hit.future.result()  # blocks only while the read is in flight
        except (CancelledError, Exception):
            # A speculative prime is never fatal.  Either the prefetcher was
            # closed before the read started (shutdown cancels queued
            # futures) or the background read itself failed — e.g. a remote
            # source out of retries.  Refund the prime-time charge, drop the
            # dead interval, and degrade to a direct synchronous read (which
            # runs the source's own resilience again); only *that* read's
            # failure may propagate.
            self._refund_if_failed(hit)
            data = self._inner.read_range(offset, length)
            with self._lock:
                self.bytes_fetched += length
            return data
        start = offset - hit.start
        chunk = data[start : start + length]
        with self._lock:
            hit.consumed += length
            if hit.consumed >= hit.end - hit.start:
                # Fully consumed: drop the cached bytes (planned blocks are
                # read exactly once, so the interval can never be needed
                # again).
                try:
                    self._primed.remove(hit)
                except ValueError:  # pragma: no cover - concurrent drop
                    pass
        return chunk

    def _tiling(self, offset: int, length: int) -> Optional[List[_Primed]]:
        """Primed intervals that contiguously tile ``[offset, offset+length)``.

        Returns ``None`` unless at least two intervals are needed (a single
        cover is the fast path) and together they leave no gap.  Caller
        holds the lock.
        """
        end = offset + length
        parts = sorted(
            (p for p in self._primed if p.start < end and p.end > offset),
            key=lambda p: p.start,
        )
        if len(parts) < 2:
            return None
        cursor = offset
        for part in parts:
            if part.start > cursor:
                return None
            cursor = max(cursor, part.end)
        return parts if cursor >= end else None

    def _stitched(
        self, offset: int, length: int, parts: List[_Primed]
    ) -> Optional[bytes]:
        """Assemble one read from a tiling of primed intervals.

        Returns ``None`` when any piece's background read failed — the
        failed prime is refunded and the caller degrades to one direct
        synchronous read of the whole range.
        """
        end = offset + length
        chunks: List[bytes] = []
        for part in parts:
            try:
                data = part.future.result()
            except (CancelledError, Exception):
                self._refund_if_failed(part)
                return None
            lo = max(offset, part.start)
            hi = min(end, part.end)
            chunks.append(data[lo - part.start : hi - part.start])
        with self._lock:
            for part in parts:
                part.consumed += min(end, part.end) - max(offset, part.start)
                if part.consumed >= part.end - part.start:
                    try:
                        self._primed.remove(part)
                    except ValueError:  # pragma: no cover - concurrent drop
                        pass
        return b"".join(chunks)

    # ------------------------------------------------------------- diagnostics

    @property
    def pending_bytes(self) -> int:
        """Bytes primed but not yet consumed (cache residency)."""
        with self._lock:
            return sum(p.end - p.start - p.consumed for p in self._primed)

    @property
    def inflight(self) -> int:
        """Primed reads still on the wire (not yet resolved).

        The engine's streaming handoff uses this to decode the shard whose
        ranges have already landed while other shards are still fetching —
        zero means every primed byte of this source is ready to consume.
        """
        with self._lock:
            return sum(1 for p in self._primed if not p.future.done())

    def close(self) -> None:
        """Discard the cache and close the wrapped source (when closable)."""
        with self._lock:
            self._primed.clear()
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()
