"""Stage 2 of the retrieval pipeline: the prime cache of remote reads.

A :class:`PrefetchSource` sits between a
:class:`~repro.core.stream.CompressedStore` and a byte-range source whose
reads cost a round trip — one that ``supports_async``, i.e. a container
block (or bare stream) over the remote stack of :mod:`repro.io.aio` — and
holds **one future per primed range**, fetched by the event-loop
:class:`~repro.io.aio.AsyncPrefetcher`:

* ``prime(ranges)`` submits one background read per range no primed range
  covers yet: the ops of a plan, or the head of a shard about to be parsed;
* ``read_range(offset, length)`` has one path: the primed range covering
  the read answers it (blocking only while in flight), anything else — a
  miss, a cancelled or failed prime — is a direct read.  A store reads each
  op exactly as primed, so an op's future is handed out once and dropped;
  a head prime stays to answer the header parse and the ops inside it.

It is the remote path, not a second prefetcher: a local file has no
wrapper (a thread prefetcher measured 0.92× / 0.87× of the synchronous
read and was deleted), and ``prefetch=0`` is the serial oracle.  The one
construction site is :meth:`repro.retrieval.engine.RetrievalEngine.open_sources`.
What a request *consumed* is the store's ``trace``, identical either way.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["PrefetchSource"]

#: The ``prefetch`` value of a *remote* source when nobody said otherwise
#: (see :func:`default_prefetch_depth`): 0 = serial, positive = multiplexed.
DEFAULT_PREFETCH_DEPTH = 4


def default_prefetch_depth(remote: bool) -> int:
    """The depth used when neither the ``prefetch`` keyword nor the
    ``--prefetch`` flag sets one: a remote source read synchronously pays a
    round trip per fetch op, so it is multiplexed; a local file reads
    synchronously whatever the value.  The one rule behind
    :class:`~repro.io.dataset.ChunkedDataset` and the CLI."""
    return DEFAULT_PREFETCH_DEPTH if remote else 0


class PrefetchSource:
    """Byte-range source wrapper with one background read per primed range."""

    def __init__(self, inner, prefetcher) -> None:
        self._inner = inner
        self._prefetcher = prefetcher
        self.size = inner.size
        self._primed: Dict[Tuple[int, int], Future] = {}
        self._lock = threading.Lock()

    def prime(self, ranges: Sequence[Tuple[int, int]]) -> int:
        """Schedule the ranges not yet covered as one burst; returns the bytes
        scheduled.  A closed prefetcher (possibly closed by another request
        sharing it) schedules nothing, and :meth:`read_range` reads directly."""
        scheduled = 0
        with self._lock, self._prefetcher.burst():
            for offset, length in ranges:
                if self._covering(offset, length) is not None:
                    continue
                try:
                    future = self._prefetcher.submit(self._inner.read_range, offset, length)
                except RuntimeError:  # shut down: the reads stay synchronous
                    break
                self._primed[(offset, length)] = future
                scheduled += length
        return scheduled

    def _covering(self, offset: int, length: int) -> Optional[Tuple[int, int]]:
        # The primed range holding [offset, offset + length); caller holds the lock.
        return next(
            (
                (start, size)
                for start, size in self._primed
                if start <= offset and offset + length <= start + size
            ),
            None,
        )

    def read_range(self, offset: int, length: int) -> bytes:
        """The covering primed range's bytes, else one direct read."""
        with self._lock:
            key = self._covering(offset, length)
            # A read of exactly a primed range is its one consumer; a read
            # inside one (inside a shard's head prime) leaves it in place.
            future = self._primed.pop(key) if key == (offset, length) else self._primed.get(key)
        if future is not None:
            try:
                data = future.result()  # blocks only while the read is in flight
            except (CancelledError, Exception):
                # Never fatal: closed before it ran, or the read failed (e.g.
                # a remote source out of retries).  The prime is dropped, the
                # direct read below runs the source's own resilience again,
                # and only *its* failure propagates.
                with self._lock:
                    if self._primed.get(key) is future:
                        del self._primed[key]
            else:
                return data[offset - key[0] : offset - key[0] + length]
        return self._inner.read_range(offset, length)

    @property
    def inflight(self) -> int:
        """Primed reads still on the wire: the engine's streaming handoff
        decodes first a shard whose source has none."""
        with self._lock:
            return sum(1 for future in self._primed.values() if not future.done())

    def close(self) -> None:
        """Drop the primed reads and close the wrapped source (when closable)."""
        with self._lock:
            self._primed.clear()
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()
