"""The write transport of a sharded field.

``BlockParallelCompressor`` is how :meth:`repro.io.ChunkedDataset.write`
shards a field: it cuts the field into slabs along the slowest axis,
compresses every slab into an independent IPComp stream under one
already-resolved (absolute) profile, and streams one ``shard-NNNN`` entry per
slab into a block-container writer.  Because every slab carries the same
absolute bound the global L∞ bound is preserved.  Reading shards back is
:class:`repro.io.ChunkedDataset`'s job (its retrieval engine); this module
only writes.

**One path: the two-slab threaded window.**  The calling thread compresses
one slab while a ``repro-write`` thread compresses the next, the caller
writes finished streams in slab order, and slab ``k + 2`` starts only once
slab ``k`` is written.  Deflate and the large NumPy passes release the GIL,
so one slab's entropy stage overlaps the other's Python.  No process is
started and nothing crosses a process boundary; an exception raised by
either slab propagates to the caller, and no thread outlives
:meth:`~BlockParallelCompressor.compress_into`.  The streams are the serial
loop's bytes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, List

import numpy as np

from repro.core.compressor import IPComp
from repro.core.profile import CodecProfile
from repro.errors import ConfigurationError, check_count
from repro.parallel.partition import SliceTuple, block_slices, slices_to_ranges

#: Container entries produced by :meth:`BlockParallelCompressor.compress_into`.
SHARD_PREFIX = "shard-"


def shard_name(index: int) -> str:
    """Canonical container-entry name of slab ``index``."""
    return f"{SHARD_PREFIX}{index:04d}"


class BlockParallelCompressor:
    """Compress a field as independent slabs straight into a container.

    ``profile`` must already be resolved against the whole field
    (:meth:`~repro.core.profile.CodecProfile.resolve`): a range-relative
    bound resolved slab by slab would give every slab its own bound and
    break the global one.  ``n_blocks`` is a positive integer.
    """

    def __init__(self, profile: CodecProfile, n_blocks: int) -> None:
        check_count("n_blocks", n_blocks, positive=True)
        if profile.relative:
            raise ConfigurationError(
                "the block compressor needs an absolute profile; resolve the "
                "range-relative bound against the whole field first"
            )
        self.profile = profile
        self.n_blocks = n_blocks

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
        blobs = self._threaded_blobs(data, slabs)
        try:
            for index, (ranges, blob) in enumerate(zip(extents, blobs)):
                writer.add_block(shard_name(index), blob, {"slices": ranges})
        finally:
            # A writer that failed leaves the generator suspended: close it
            # here, so its thread ends before we return.
            blobs.close()
        return extents

    def _threaded_blobs(self, data: np.ndarray, slabs: List[SliceTuple]) -> Iterator[bytes]:
        """Slab streams in slab order, two slabs in flight.

        The calling thread compresses the even slabs and one ``repro-write``
        thread the odd ones, a pair at a time: slab ``k + 2`` starts only
        once slab ``k`` has been taken, so at most two slab copies and two
        streams are alive at once.  The caller takes a share rather than a
        second helper because every thread leaves its malloc arena behind
        (≈ 8 MB on the e2e field), which the process keeps.  The C kernel
        keeps nothing between calls and ``compress`` shares no mutable
        state, so the bytes are the serial loop's.  An exception in either slab
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
