"""The one process-pool primitive: ordered map + shared-memory segments.

**Shared memory or in-process.**  Work crosses the process boundary in one
place only — slabs go *in* through one shared-memory segment on write
(:mod:`repro.parallel.executor`); every read decodes in-process.  Where
that transport cannot be used (``workers <= 1``, a single task,
:func:`create_segment` returning ``None``) the writer runs its two-slab
threaded window in-process; no array is ever pickled across the boundary.  The pool
dispatches through :func:`imap_fallback`, which covers the errors a pool
can still return:

* a pool that cannot *start* (no spawn method, sealed sandbox, resource
  limits) falls back to in-process execution;
* a submit-time fork/spawn denial falls back to in-process execution;
* worker *processes* dying mid-run (:class:`BrokenProcessPool`: sandboxed
  fork, OOM-killed children) finish the remaining payloads in-process;
* an exception raised by the worker **function** itself is a real error and
  propagates to the caller — environment failures degrade, logic failures
  never do.

Every route produces identical results because the worker functions are
pure; the ladder only changes *where* they run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from typing import Iterator, Sequence

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    shared_memory = None

#: Minimum field bytes an encode task should carry: consecutive smaller
#: slabs are batched into one task to amortise dispatch.
MIN_TASK_BYTES = 1 << 20


def imap_fallback(function, payloads: Sequence, workers: int) -> Iterator:
    """Apply ``function`` to every payload, yielding results *in order*.

    Results are yielded as soon as they (and all their predecessors)
    complete, so consumers can stream them — e.g. write shard ``k`` to a
    container while shard ``k+1`` is still compressing.  ``workers <= 1``
    (or a single payload) is plain in-process execution.  The pool lives
    for this one call; whatever it did not deliver is finished in-process.
    """
    done = 0
    if workers and workers > 1 and len(payloads) > 1:
        with ExitStack() as stack:
            try:
                # The pool itself may not start (no /dev/shm, no spawn
                # method), and worker processes are spawned lazily at
                # submit time, so fork/spawn denial (sandboxes) surfaces
                # there — environment problems both: run in-process,
                # results are bit-identical.
                pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
                futures = [pool.submit(function, p) for p in payloads]
            except (OSError, ValueError, RuntimeError, NotImplementedError):
                futures = []
            for future in futures:
                try:
                    result = future.result()
                except BrokenProcessPool:
                    # Worker *processes* died while running — an environment
                    # problem, so finish the remaining payloads in-process.
                    # Exceptions raised by ``function`` itself arrive as their
                    # original type and fall through to the caller: a worker
                    # error is a real error, not a cue to silently recompute.
                    break
                yield result
                done += 1
    for payload in payloads[done:]:
        yield function(payload)


def create_segment(nbytes: int):
    """A fresh shared-memory segment, or ``None`` where unsupported.

    ``None`` tells the caller to run its in-process path instead: without
    a segment there is no transport, and so no pool.
    """
    if shared_memory is None:
        return None
    try:
        return shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    except (OSError, ValueError, RuntimeError, NotImplementedError):
        # No /dev/shm (sealed sandbox), size limits, …
        return None


def release_segment(segment) -> None:
    """Best-effort close + unlink of a segment this process created."""
    try:
        segment.close()
        segment.unlink()
    except (BufferError, OSError):  # pragma: no cover - best-effort cleanup
        pass
