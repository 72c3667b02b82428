"""The write transport of a sharded field.

``BlockParallelCompressor`` is how :meth:`repro.io.ChunkedDataset.write`
shards a field: it cuts the field into slabs along the slowest axis,
compresses every slab into an independent IPComp stream under one
already-resolved (absolute) profile, and streams one ``shard-NNNN`` entry per
slab into a block-container writer.  Because every slab carries the same
absolute bound the global L∞ bound is preserved.  Reading shards back is
:class:`repro.io.ChunkedDataset`'s job (its retrieval engine); this module
only writes.

**Slab transport: shared memory or in-process.**  The parallel path places
the field in one :mod:`multiprocessing.shared_memory` segment and sends
workers (separate processes, so the NumPy work genuinely runs in parallel)
only ``(profile, segment name, shape, dtype, slab extents)`` — a few hundred
bytes per task instead of a pickled copy of every slab crossing the process
boundary twice.  Workers attach a read-only NumPy view and compress their
slabs in place.  Consecutive small slabs are **batched** into one task
(:data:`repro.parallel.poolmap.MIN_TASK_BYTES`) so a finely sharded field
does not drown in per-task dispatch overhead.  When the transport cannot be
used — ``workers <= 1``, a single slab, or no segment (no ``/dev/shm``,
sealed sandbox) — the slabs are compressed in-process by the **two-slab
threaded window**: the calling thread compresses one slab while a
``repro-write`` thread compresses the next, the caller writes finished
streams in slab order, and slab ``k + 2`` starts only once slab ``k`` is
written.  Deflate and the large NumPy passes release the GIL, so one slab's
entropy stage overlaps the other's Python; no slab is ever pickled to a
worker, and ``workers`` still counts processes only.  A pool that cannot
start — or that loses its worker processes — finishes in-process too; an
exception *raised by the worker function itself* (or by either slab of the
window) is a real error and propagates to the caller
(:func:`repro.parallel.poolmap.imap_fallback`).  No thread or process
outlives :meth:`~BlockParallelCompressor.compress_into`, and every route
produces byte-identical streams.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, List, Optional

import numpy as np

from repro.core.compressor import IPComp
from repro.core.profile import CodecProfile
from repro.errors import ConfigurationError, check_count
from repro.parallel.partition import (
    SliceTuple,
    batch_slabs,
    block_slices,
    ranges_to_slices,
    slices_to_ranges,
)
from repro.parallel import poolmap

#: Container entries produced by :meth:`BlockParallelCompressor.compress_into`.
SHARD_PREFIX = "shard-"


def shard_name(index: int) -> str:
    """Canonical container-entry name of slab ``index``."""
    return f"{SHARD_PREFIX}{index:04d}"


def _compress_batch_shm(payload) -> List[bytes]:
    """Worker: compress a batch of slabs read from a shared-memory field.

    The payload carries no array data — just the segment name plus the
    global shape/dtype and each slab's extents — so task pickling cost is
    independent of the field size.  The same function also runs in-process
    when the pool breaks (attaching to a segment from the creating process
    is valid and free).
    """
    profile, segment_name, shape, dtype, batch_ranges = payload
    segment = poolmap.shared_memory.SharedMemory(name=segment_name)
    field = None
    try:
        field = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=segment.buf)
        return [
            IPComp(profile=profile).compress(
                np.ascontiguousarray(field[ranges_to_slices(ranges)])
            )
            for ranges in batch_ranges
        ]
    finally:
        # The ndarray view must release the buffer before the segment
        # handle can close (ascontiguousarray copies, so nothing else
        # holds it).
        del field
        segment.close()


class BlockParallelCompressor:
    """Compress a field as independent slabs straight into a container.

    ``profile`` must already be resolved against the whole field
    (:meth:`~repro.core.profile.CodecProfile.resolve`): a range-relative
    bound resolved slab by slab would give every slab its own bound and
    break the global one.  ``n_blocks`` is a positive integer; ``workers``
    is ``None`` (up to four processes) or a non-negative integer
    (``0`` / ``1`` = in-process).
    """

    def __init__(
        self, profile: CodecProfile, n_blocks: int, workers: Optional[int]
    ) -> None:
        check_count("n_blocks", n_blocks, positive=True)
        if workers is not None:
            check_count("workers", workers)
        if profile.relative:
            raise ConfigurationError(
                "the block compressor needs an absolute profile; resolve the "
                "range-relative bound against the whole field first"
            )
        self.profile = profile
        self.n_blocks = n_blocks
        self.workers = min(n_blocks, 4) if workers is None else workers

    def compress_into(self, writer, data: np.ndarray) -> List[List[List[int]]]:
        """Compress ``data``, streaming one ``shard-NNNN`` entry per slab.

        ``writer`` is any object with the
        :meth:`repro.io.BlockContainerWriter.add_block` interface (duck-typed
        so this module needs no dependency on :mod:`repro.io`).  Shards are
        written **as they are produced** — the container receives shard
        ``k`` while later slabs are still compressing, and no list of all
        streams is materialised first.  Each entry's metadata records the
        slab's global extents; they are returned in shard order, as the
        manifest records them.
        """
        data = np.ascontiguousarray(data)
        slabs = block_slices(data.shape, self.n_blocks)
        extents = [slices_to_ranges(slc, data.shape) for slc in slabs]
        segment = None
        if len(slabs) > 1 and self.workers > 1:
            segment = poolmap.create_segment(data.nbytes)
        if segment is None:
            # No transport, no pool: the in-process slab window.
            blobs = self._threaded_blobs(data, slabs)
        else:
            blobs = self._pooled_blobs(segment, data, slabs, extents)
        try:
            for index, (ranges, blob) in enumerate(zip(extents, blobs)):
                writer.add_block(shard_name(index), blob, {"slices": ranges})
        finally:
            # A writer that failed leaves the generator suspended: close it
            # here, so its thread or processes end before we return.
            blobs.close()
            if segment is not None:
                poolmap.release_segment(segment)
        return extents

    def _threaded_blobs(self, data: np.ndarray, slabs: List[SliceTuple]) -> Iterator[bytes]:
        """Slab streams in slab order, two slabs in flight.

        The calling thread compresses the even slabs and one ``repro-write``
        thread the odd ones, a pair at a time: slab ``k + 2`` starts only
        once slab ``k`` has been taken, so at most two slab copies and two
        streams are alive at once.  The caller takes a share rather than a
        second helper because every thread leaves its malloc arena behind
        (≈ 8 MB on the e2e field), which the process keeps.  Each thread has
        its own kernel arena and ``compress`` shares no mutable state, so
        the bytes are the serial loop's.  An exception in either slab
        propagates once the helper's slab has finished.
        """

        def compress(slc: SliceTuple) -> bytes:
            return IPComp(profile=self.profile).compress(np.ascontiguousarray(data[slc]))

        with ThreadPoolExecutor(1, thread_name_prefix="repro-write") as helper:
            for even in range(0, len(slabs), 2):
                odd = helper.submit(compress, slabs[even + 1]) if even + 1 < len(slabs) else None
                yield compress(slabs[even])
                if odd is not None:
                    yield odd.result()

    def _pooled_blobs(
        self, segment, data: np.ndarray, slabs: List[SliceTuple], extents: List
    ) -> Iterator[bytes]:
        """Slab streams from the pool, in slab order, as batches finish."""
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
        view[...] = data
        del view  # workers hold their own attachments; release ours
        batches = batch_slabs(
            slabs, data.shape, data.dtype.itemsize, self.workers, poolmap.MIN_TASK_BYTES
        )
        payloads, cursor = [], 0
        for batch in batches:
            payloads.append(
                (self.profile, segment.name, tuple(data.shape), str(data.dtype),
                 extents[cursor : cursor + len(batch)])
            )
            cursor += len(batch)
        for blobs in poolmap.imap_fallback(_compress_batch_shm, payloads, self.workers):
            yield from blobs
