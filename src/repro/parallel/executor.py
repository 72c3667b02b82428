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
sealed sandbox) — the slabs are compressed by the plain in-process loop; no
slab is ever pickled to a worker.  A pool that cannot start — or that loses
its worker processes — finishes in-process too; an exception *raised by the
worker function itself* is a real error and propagates to the caller
(:func:`repro.parallel.poolmap.imap_fallback`).  Every route produces
byte-identical streams.
"""

from __future__ import annotations

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
        try:
            if segment is None:
                # No transport, no pool: the plain in-process slab loop.
                blobs = (
                    IPComp(profile=self.profile).compress(
                        np.ascontiguousarray(data[slc])
                    )
                    for slc in slabs
                )
            else:
                blobs = self._pooled_blobs(segment, data, slabs, extents)
            for index, (ranges, blob) in enumerate(zip(extents, blobs)):
                writer.add_block(shard_name(index), blob, {"slices": ranges})
        finally:
            if segment is not None:
                poolmap.release_segment(segment)
        return extents

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
