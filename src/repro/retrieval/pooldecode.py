"""Stage 3 of the retrieval pipeline: pool decode into shared output.

The decode-side mirror of the encode slab transport
(:mod:`repro.parallel.executor`): the parent creates **one shared-memory
output segment** shaped like the result, and each worker writes its decoded
slabs directly into the segment at the slab's partition extents.
Reassembly is therefore zero-copy — the parent never copies or concatenates
slab arrays; it returns a NumPy array *backed by the segment itself* (the
segment is unlinked immediately and released when the array is
garbage-collected).

One entry point, :func:`pooled_container_read`, decodes shards straight
*from a container file*: each worker opens its own reader and performs an
ordinary plan-then-load retrieval, so byte selectivity (and the per-shard
range trace the accounting reports) is identical to the serial path.  It
returns ``None`` when no segment can be created — *shared memory or
in-process*: the engine then serves the request through its ordinary
serial path, and no decoded array is ever pickled back.  The pool's own
failures (cannot start, fork denied, workers died) finish in-process and a
worker exception propagates (:func:`repro.parallel.poolmap.imap_fallback`).
Every route produces bitwise-identical output.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.partition import (
    batch_slabs,
    intersect_slab_roi,
    ranges_to_slices,
)
from repro.parallel import poolmap

__all__ = ["pooled_container_read", "detach_shared_array"]


# ------------------------------------------------------------ segment lifetime


def _release_segment_quietly(segment) -> None:
    try:
        segment.close()
    except (BufferError, OSError):  # pragma: no cover - exported views remain
        pass


def detach_shared_array(segment, shape, dtype) -> np.ndarray:
    """An ndarray view of ``segment`` that owns the segment's lifetime.

    The segment is unlinked immediately (no name leak even on crash) and
    closed by a :func:`weakref.finalize` callback once the array — and
    every view derived from it — has been garbage-collected.  This is what
    makes the reassembly genuinely zero-copy: the workers' writes *are* the
    final array.
    """
    arr = np.ndarray(tuple(int(s) for s in shape), dtype=np.dtype(dtype), buffer=segment.buf)
    try:
        segment.unlink()
    except (OSError, FileNotFoundError):  # pragma: no cover - already gone
        pass
    weakref.finalize(arr, _release_segment_quietly, segment)
    return arr


# ------------------------------------------------- the worker, the entry point


def _retrieve_container_shards(payload) -> List[Tuple[str, list, float]]:
    """Worker: plan-then-load retrieval of shards straight off the file.

    Opens its own container reader (plan-selective byte ranges, exactly
    like the serial path), decodes each shard at the target bound and
    writes the slab∩ROI overlap into the shared output segment.  The
    per-shard range trace travels back — it is a few tuples — so the
    caller's byte accounting matches the synchronous path entry for entry.
    Also runs in-process when the pool breaks (attaching to a segment from
    the creating process is valid and free).
    """
    from repro.io.container import BlockContainerReader
    from repro.retrieval.engine import RetrievalEngine

    path, segment_name, out_shape, dtype, roi_ranges, tasks, error_bound = payload
    roi = ranges_to_slices(roi_ranges)
    segment = poolmap.shared_memory.SharedMemory(name=segment_name)
    out = None
    results: List[Tuple[str, list, float]] = []
    try:
        out = np.ndarray(tuple(out_shape), dtype=np.dtype(dtype), buffer=segment.buf)
        with BlockContainerReader(path) as reader:
            # The same source tower as the serial path, over this process's
            # own reader (a local file: the store reads its block directly).
            engine = RetrievalEngine(reader.source)
            for name, slab_ranges in tasks:
                (retriever,) = engine.open_retrievers([name])
                result = retriever.retrieve(error_bound=error_bound)
                sel_out, sel_in = intersect_slab_roi(ranges_to_slices(slab_ranges), roi)
                out[sel_out] = result.data[sel_in]
                results.append((name, retriever.store.trace, float(result.error_bound)))
        return results
    finally:
        # The ndarray view must release the buffer before the segment
        # handle can close.
        del out
        segment.close()


def pooled_container_read(
    path,
    shard_tasks: Sequence[Tuple[str, Sequence[Sequence[int]]]],
    roi_ranges: Sequence[Sequence[int]],
    out_shape: Sequence[int],
    dtype,
    error_bound: float,
    workers: int,
) -> Optional[Tuple[np.ndarray, List[Tuple[str, List[Tuple[int, int]], float]]]]:
    """Pool-decode selected shards of a container file into an ROI output.

    ``shard_tasks`` is ``[(shard name, slab extents)]`` in selection order;
    ``roi_ranges`` the normalized ROI extents.  Returns the assembled array
    plus ``(name, consumed ranges, achieved bound)`` per shard, in task
    order — the same accounting triple the serial engine produces — or
    ``None`` when no shared-memory segment is available (the caller then
    reads in-process).
    """
    out_shape = tuple(int(s) for s in out_shape)
    dtype = np.dtype(dtype)
    segment = poolmap.create_segment(int(np.prod(out_shape)) * dtype.itemsize)
    if segment is None:
        return None
    accounting: List[Tuple[str, List[Tuple[int, int]], float]] = []
    try:
        roi = ranges_to_slices(roi_ranges)
        # Batch by decoded overlap size so small shards amortise dispatch.
        overlaps = [
            intersect_slab_roi(ranges_to_slices(ranges), roi)[0]
            for _, ranges in shard_tasks
        ]
        batches = batch_slabs(
            overlaps, out_shape, dtype.itemsize, workers, poolmap.MIN_TASK_BYTES
        )
        payloads = []
        cursor = 0
        for batch in batches:
            tasks = shard_tasks[cursor : cursor + len(batch)]
            cursor += len(batch)
            payloads.append(
                (str(path), segment.name, out_shape, str(dtype), list(roi_ranges),
                 [(name, list(ranges)) for name, ranges in tasks], float(error_bound))
            )
        for results in poolmap.imap_fallback(
            _retrieve_container_shards, payloads, workers
        ):
            for name, trace, achieved in results:
                accounting.append((name, [tuple(r) for r in trace], achieved))
    except BaseException:
        poolmap.release_segment(segment)
        raise
    return detach_shared_array(segment, out_shape, dtype), accounting
