"""Stage 2 of the retrieval pipeline: bounded background prefetching.

A :class:`Prefetcher` owns a small thread pool (file reads release the GIL,
so range I/O genuinely overlaps NumPy decode work); a :class:`PrefetchSource`
wraps any byte-range source and serves reads out of a cache of *primed*
ranges:

* ``prime(ranges)`` submits background reads for the planned, coalesced
  ranges of a :class:`~repro.retrieval.plan.FetchOp` list, skipping (or
  splitting around) anything already primed — a range is physically read
  **at most once**, which is what keeps the never-re-read property intact
  under speculative prefetching;
* ``read_range(offset, length)`` returns the bytes from the cache when a
  primed range covers them (blocking only if that read is still in flight)
  and falls through to a direct synchronous read otherwise.

Accounting is split in two on purpose:

* ``trace`` records the ranges **consumed** by the reader — per block,
  append-ordered, exactly what the synchronous path would have read.  The
  dataset layer reports these, so byte counts are identical with and
  without prefetching, and a speculative fetch of the next fidelity rung is
  attributed to the request that eventually *uses* it (or to none at all).
* ``bytes_fetched`` counts the physical reads, speculation included — the
  honest I/O figure.

With no prefetcher attached the source is a pure pass-through (plus the
consumed trace), so the synchronous path runs the same code.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple

__all__ = ["Prefetcher", "PrefetchSource"]

#: Number of range reads in flight when a *remote* source is read and
#: nobody said otherwise (see :func:`default_prefetch_depth`).
DEFAULT_PREFETCH_DEPTH = 4


def default_prefetch_depth(remote: bool) -> int:
    """The depth used when neither a keyword, a flag nor a profile sets one.

    A remote source read synchronously pays one round trip per plane
    block, so it prefetches at :data:`DEFAULT_PREFETCH_DEPTH`; a local file
    reads synchronously — the page cache is the source, and the thread
    prefetcher measured 0.92× (full read) / 0.87× (four-rung ladder) of
    the synchronous read at the e2e size.  The one rule behind
    :class:`~repro.io.dataset.ChunkedDataset`,
    :func:`~repro.retrieval.engine.open_stream_source` and the CLI.
    """
    return DEFAULT_PREFETCH_DEPTH if remote else 0


class Prefetcher:
    """A bounded pool of background range readers, shared across sources."""

    def __init__(self, depth: int = DEFAULT_PREFETCH_DEPTH) -> None:
        self.depth = max(1, int(depth))
        self._executor = ThreadPoolExecutor(
            max_workers=self.depth, thread_name_prefix="repro-prefetch"
        )
        self._closed = False

    def submit(self, fn, *args) -> Future:
        return self._executor.submit(fn, *args)

    def burst(self):
        """Group the submits of one block (the prefetcher duck type).  Pool
        threads start each read as it is submitted; nothing to hold."""
        return nullcontext()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop issuing new reads; in-flight reads are abandoned to finish."""
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "Prefetcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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

    def __init__(self, inner, prefetcher: Optional[Prefetcher] = None) -> None:
        self._inner = inner
        self._prefetcher = prefetcher
        self.size = inner.size
        #: Ranges consumed by the reader (the synchronous-path equivalent).
        self.trace: List[Tuple[int, int]] = []
        #: Physical bytes read, speculative primes included.
        self.bytes_fetched = 0
        self._primed: List[_Primed] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ prime

    def prime(self, ranges: Sequence[Tuple[int, int]]) -> int:
        """Schedule background reads of ``ranges``; returns bytes scheduled.

        Ranges (coalesced fetch-op extents) are split around anything
        already primed, so re-priming — e.g. a speculative rung followed by
        the actual request's plan — never re-reads a byte.  Without a
        prefetcher this is a no-op and reads stay synchronous.

        A prefetcher that has been closed (possibly by another request
        sharing it, mid-prime) degrades the same way: its executor refuses
        new futures with ``RuntimeError``, which ends the prime early — the
        unscheduled ranges simply fall through to direct synchronous reads
        in :meth:`read_range`, bitwise-identical.
        """
        if self._prefetcher is None or self._prefetcher.closed:
            return 0
        scheduled = 0
        submitted: List[_Primed] = []
        shut_down = False
        # One burst per call: an event-loop prefetcher then sees (and
        # merges) all of these ranges together, not as they trickle in.
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
                        # Executor shut down between the closed check and
                        # the submit: stop priming; nothing was charged for
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
        self.trace.append((offset, length))
        hit = parts = None
        if self._primed:  # else (every local-file read) a plain miss: no lock, no scans
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
        self.drop_unconsumed()
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()

    def drop_unconsumed(self) -> int:
        """Discard primed-but-unconsumed intervals; returns bytes dropped.

        Used when a speculative rung turns out wrong enough that its cached
        blocks can never be consumed (the retriever surpassed them).
        """
        with self._lock:
            dropped = sum(p.end - p.start - p.consumed for p in self._primed)
            self._primed.clear()
        return dropped
