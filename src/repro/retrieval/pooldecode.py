"""Stage 3 of the retrieval pipeline: pool decode into shared output.

The decode-side mirror of the encode slab transport
(:mod:`repro.parallel.executor`): instead of pickling every reconstructed
slab array back across the process boundary, the parent creates **one
shared-memory output segment** shaped like the result, and each worker
writes its decoded slabs directly into the segment at the slab's partition
extents.  Reassembly is therefore zero-copy — the parent never copies or
concatenates slab arrays; it returns a NumPy array *backed by the segment
itself* (the segment is unlinked immediately and released when the array is
garbage-collected).

Two entry points, one per payload kind:

* :func:`pooled_reassemble` — decode in-memory compressed blobs
  (:class:`~repro.parallel.executor.CompressedBlock`), used by
  ``BlockParallelCompressor.decompress`` / ``retrieve``;
* :func:`pooled_container_read` — decode shards straight *from a container
  file*: each worker opens its own reader and performs an ordinary
  plan-then-load retrieval, so byte selectivity (and the per-shard range
  trace the accounting reports) is identical to the serial path.

The fallback ladder matches the encode side exactly (see
:mod:`repro.parallel.poolmap`): no shared memory → pickled result arrays;
no usable pool → in-process execution; a worker exception propagates.
Every route produces bitwise-identical output.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.parallel.partition import (
    batch_slabs,
    intersect_slab_roi,
    ranges_to_slices,
    reassemble,
    slab_bytes,
    slices_to_ranges,
)
from repro.parallel.poolmap import create_segment, imap_fallback, release_segment

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    _shared_memory = None

__all__ = ["pooled_reassemble", "pooled_container_read", "detach_shared_array"]

#: Minimum decoded bytes a pool-decode task should carry (consecutive
#: smaller slabs are batched, mirroring the encode side's threshold).
MIN_DECODE_TASK_BYTES = 1 << 20


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


def _check_coverage(slabs, shape, itemsize) -> None:
    out_bytes = int(np.prod(tuple(int(s) for s in shape))) * itemsize
    covered = sum(slab_bytes(slc, shape, itemsize) for slc in slabs)
    if covered != out_bytes:
        raise ConfigurationError(
            f"blocks cover {covered // max(itemsize, 1)} points but the field "
            f"has {out_bytes // max(itemsize, 1)}"
        )


# ------------------------------------------------------- blob-payload workers


def _decode_blob(payload) -> np.ndarray:
    """Worker (pickled transport): fully/partially decode one slab blob."""
    from repro.core.progressive import ProgressiveRetriever

    blob, error_bound = payload
    retriever = ProgressiveRetriever(blob)
    target = error_bound if error_bound is not None else retriever.header.error_bound
    return retriever.retrieve(error_bound=target).data


def _decode_blob_batch_shm(payload) -> int:
    """Worker: decode a batch of slab blobs into the shared output segment.

    The payload carries the compressed blobs (small) plus the segment name
    and slab extents; no decoded array ever crosses the process boundary.
    Also runs in-process on the fallback paths (attaching to a segment from
    the creating process is valid and free).
    """
    from repro.core.progressive import ProgressiveRetriever

    segment_name, shape, dtype, tasks, error_bound = payload
    segment = _shared_memory.SharedMemory(name=segment_name)
    out = None
    try:
        out = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=segment.buf)
        for blob, ranges in tasks:
            retriever = ProgressiveRetriever(blob)
            target = (
                error_bound if error_bound is not None else retriever.header.error_bound
            )
            out[ranges_to_slices(ranges)] = retriever.retrieve(error_bound=target).data
        return len(tasks)
    finally:
        # The ndarray view must release the buffer before the segment
        # handle can close.
        del out
        segment.close()


def pooled_reassemble(
    blocks: Sequence,
    shape: Sequence[int],
    dtype=np.float64,
    *,
    workers: int = 0,
    error_bound: Optional[float] = None,
) -> np.ndarray:
    """Decode ``CompressedBlock``-likes and reassemble the field.

    ``error_bound=None`` decodes at each stream's stored (full) bound.
    With ``workers > 1`` and shared memory available, workers write their
    slabs straight into one shared output segment and the returned array is
    a zero-copy view of it; otherwise the pickled/serial path reproduces
    the classic scatter — bitwise-identical either way.
    """
    shape = tuple(int(s) for s in shape)
    dtype = np.dtype(dtype)
    slabs = [block.slices for block in blocks]
    _check_coverage(slabs, shape, dtype.itemsize)
    segment = None
    if workers and workers > 1 and len(blocks) > 1:
        segment = create_segment(int(np.prod(shape)) * dtype.itemsize)
    if segment is None:
        payloads = [(block.blob, error_bound) for block in blocks]
        pieces = list(imap_fallback(_decode_blob, payloads, workers))
        return reassemble(
            shape, [(slc, piece) for slc, piece in zip(slabs, pieces)], dtype
        )
    try:
        batches = batch_slabs(
            slabs, shape, dtype.itemsize, workers, MIN_DECODE_TASK_BYTES
        )
        payloads = []
        cursor = 0
        for batch in batches:
            tasks = []
            for slc in batch:
                tasks.append(
                    (blocks[cursor].blob, slices_to_ranges(slc, shape))
                )
                cursor += 1
            payloads.append((segment.name, shape, str(dtype), tasks, error_bound))
        for _ in imap_fallback(_decode_blob_batch_shm, payloads, workers):
            pass
    except BaseException:
        release_segment(segment)
        raise
    return detach_shared_array(segment, shape, dtype)


# -------------------------------------------------- container-payload workers


def _retrieve_container_shards(payload) -> List[Tuple[str, list, float, Optional[np.ndarray]]]:
    """Worker: plan-then-load retrieval of shards straight off the file.

    Opens its own container reader (plan-selective byte ranges, exactly
    like the serial path), decodes each shard at the target bound, and
    either writes the slab∩ROI overlap into the shared output segment
    (``segment_name`` set; returns ``None`` pieces) or returns the overlap
    arrays for the pickled fallback.  The per-shard range trace travels
    back either way — it is a few tuples — so the caller's byte accounting
    matches the synchronous path entry for entry.
    """
    from repro.io.container import BlockContainerReader, BlockSource
    from repro.core.progressive import ProgressiveRetriever

    path, segment_name, out_shape, dtype, roi_ranges, tasks, error_bound = payload
    roi = ranges_to_slices(roi_ranges)
    segment = None
    out = None
    if segment_name is not None:
        segment = _shared_memory.SharedMemory(name=segment_name)
        out = np.ndarray(tuple(out_shape), dtype=np.dtype(dtype), buffer=segment.buf)
    results: List[Tuple[str, list, float, Optional[np.ndarray]]] = []
    try:
        with BlockContainerReader(path) as reader:
            for name, slab_ranges in tasks:
                source = BlockSource(reader, name)
                retriever = ProgressiveRetriever(source)
                result = retriever.retrieve(error_bound=error_bound)
                slab = ranges_to_slices(slab_ranges)
                sel_out, sel_in = intersect_slab_roi(slab, roi)
                if out is not None:
                    out[sel_out] = result.data[sel_in]
                    piece = None
                else:
                    piece = np.ascontiguousarray(result.data[sel_in])
                results.append(
                    (name, list(source.trace), float(result.error_bound), piece)
                )
        return results
    finally:
        del out
        if segment is not None:
            segment.close()


def pooled_container_read(
    path,
    shard_tasks: Sequence[Tuple[str, Sequence[Sequence[int]]]],
    roi_ranges: Sequence[Sequence[int]],
    out_shape: Sequence[int],
    dtype,
    error_bound: float,
    workers: int,
    executor=None,
) -> Tuple[np.ndarray, List[Tuple[str, List[Tuple[int, int]], float]]]:
    """Pool-decode selected shards of a container file into an ROI output.

    ``shard_tasks`` is ``[(shard name, slab extents)]`` in selection order;
    ``roi_ranges`` the normalized ROI extents.  Returns the assembled array
    plus ``(name, consumed ranges, achieved bound)`` per shard, in task
    order — the same accounting triple the serial engine produces.
    ``executor`` lends a caller-owned persistent pool (see
    :func:`~repro.parallel.poolmap.imap_fallback`).
    """
    out_shape = tuple(int(s) for s in out_shape)
    dtype = np.dtype(dtype)
    segment = create_segment(int(np.prod(out_shape)) * dtype.itemsize)
    slabs = [ranges_to_slices(ranges) for _, ranges in shard_tasks]
    roi = ranges_to_slices(roi_ranges)
    # Batch by decoded overlap size so small shards amortise dispatch.
    overlaps = [intersect_slab_roi(slab, roi)[0] for slab in slabs]
    batches = batch_slabs(
        overlaps, out_shape, dtype.itemsize, workers, MIN_DECODE_TASK_BYTES
    )
    payloads = []
    cursor = 0
    segment_name = segment.name if segment is not None else None
    for batch in batches:
        tasks = [shard_tasks[cursor + i] for i in range(len(batch))]
        cursor += len(batch)
        payloads.append(
            (str(path), segment_name, out_shape, str(dtype), list(roi_ranges),
             [(name, list(ranges)) for name, ranges in tasks], float(error_bound))
        )
    accounting: List[Tuple[str, List[Tuple[int, int]], float]] = []
    pieces: List[Tuple[str, np.ndarray]] = []
    try:
        for results in imap_fallback(
            _retrieve_container_shards, payloads, workers, executor=executor
        ):
            for name, trace, achieved, piece in results:
                accounting.append((name, [tuple(r) for r in trace], achieved))
                if piece is not None:
                    pieces.append((name, piece))
    except BaseException:
        if segment is not None:
            release_segment(segment)
        raise
    if segment is not None:
        return detach_shared_array(segment, out_shape, dtype), accounting
    # Pickled fallback: scatter the returned overlap arrays in the parent.
    out = np.empty(out_shape, dtype=dtype)
    by_name = dict(pieces)
    for (name, slab_ranges) in shard_tasks:
        sel_out, _ = intersect_slab_roi(ranges_to_slices(slab_ranges), roi)
        out[sel_out] = by_name[name]
    return out, accounting
