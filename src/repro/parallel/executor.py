"""Process-pool block compressor with shared-memory slab transport.

``BlockParallelCompressor`` decomposes a field into slabs, compresses every
slab with an independent IPComp stream (workers are separate processes, so the
NumPy work genuinely runs in parallel), and reassembles on decompression.
Because each block carries its own error-bounded stream the global L∞ bound
is preserved, and progressive retrieval can be served block by block.

**Slab transport: shared memory or in-process.**  The parallel compress
path places the field in one :mod:`multiprocessing.shared_memory` segment
and sends workers only ``(profile, segment name, shape, dtype, slab
extents)`` — a few hundred bytes per task instead of a pickled copy of
every slab crossing the process boundary twice.  Workers attach a read-only
NumPy view and compress their slabs in place.  Consecutive small slabs are
**batched** into one task (:data:`MIN_TASK_BYTES`) so a finely sharded
field does not drown in per-task dispatch overhead.  When the transport
cannot be used — ``workers <= 1``, a single slab, or no segment (no
``/dev/shm``, sealed sandbox) — the slabs are compressed by the plain
in-process loop; no slab is ever pickled to a worker.  A pool that cannot
start — or that loses its worker processes — finishes in-process too; an
exception *raised by the worker function itself* is a real error and
propagates to the caller (:func:`repro.parallel.poolmap.imap_fallback`).
Every route produces byte-identical streams.

**Decode direction.**  :meth:`~BlockParallelCompressor.decompress` and
:meth:`~BlockParallelCompressor.retrieve` decode in-memory blobs in-process
and scatter them with :func:`repro.parallel.partition.reassemble`.  The
pooled read decodes shards straight off a container file:
:func:`repro.retrieval.pooldecode.pooled_container_read`, reached through
``ChunkedDataset(path, workers=N).read()``.

The compressor also speaks the on-disk container dialect of
:mod:`repro.io`: :meth:`~BlockParallelCompressor.compress_into` **streams**
one ``shard-NNNN`` entry per slab to any block-container writer as each
slab's stream is produced (no intermediate list of all streams is built
before the first byte reaches the container), and
:meth:`~BlockParallelCompressor.blocks_from_entries` reads them back — the
substrate :class:`repro.io.ChunkedDataset` builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.compressor import IPComp
from repro.core.profile import CodecProfile
from repro.core.progressive import ProgressiveRetriever
from repro.errors import ConfigurationError, StreamFormatError
from repro.parallel.partition import (
    SliceTuple,
    batch_slabs,
    block_slices,
    ranges_to_slices,
    reassemble,
    slices_to_ranges,
)
from repro.parallel import poolmap

#: Container entries produced by :meth:`BlockParallelCompressor.compress_into`.
SHARD_PREFIX = "shard-"

#: Minimum slab bytes a parallel task should carry: consecutive smaller
#: slabs are batched into one task to amortise dispatch overhead.
MIN_TASK_BYTES = 1 << 20


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


@dataclass
class CompressedBlock:
    """One slab of the domain and its compressed stream."""

    slices: SliceTuple
    blob: bytes

    @property
    def nbytes(self) -> int:
        return len(self.blob)


class BlockParallelCompressor:
    """Compress a large field as independent, optionally parallel, slabs."""

    def __init__(
        self,
        error_bound: Optional[float] = None,
        relative: Optional[bool] = None,
        n_blocks: int = 4,
        workers: Optional[int] = None,
        profile: Optional[CodecProfile] = None,
        **profile_overrides,
    ) -> None:
        if n_blocks < 1:
            raise ConfigurationError("n_blocks must be positive")
        self.profile = CodecProfile.from_options(
            profile, error_bound=error_bound, relative=relative, **profile_overrides
        )
        self.n_blocks = n_blocks
        self.workers = workers

    # ------------------------------------------------------------------ utils

    def _effective_workers(self) -> int:
        if self.workers is None:
            return min(self.n_blocks, 4)
        return self.workers or 0

    def _map(self, function, payloads: Sequence) -> List:
        """``function`` over ``payloads`` through the pool's safety ladder
        (:func:`repro.parallel.poolmap.imap_fallback`), results in order."""
        return list(
            poolmap.imap_fallback(function, payloads, self._effective_workers())
        )

    # ------------------------------------------------------------- public API

    def resolved_profile(self, data: np.ndarray) -> CodecProfile:
        """The per-block codec profile for ``data``, bound resolved.

        The per-block absolute bound is derived from the *global* field when
        the profile is range-relative, so every block honours the same
        absolute bound and the reassembled field satisfies it globally.
        """
        return self.profile.resolve(np.asarray(data))

    def compress(self, data: np.ndarray) -> List[CompressedBlock]:
        """Compress ``data`` into ``n_blocks`` independent IPComp streams."""
        return list(self.compress_iter(data))

    def compress_iter(self, data: np.ndarray) -> Iterator[CompressedBlock]:
        """Compress ``data`` slab by slab, yielding blocks in slab order.

        The parallel path ships the field to workers through one
        shared-memory segment (see the module docstring); blocks are
        yielded as soon as they — and their predecessors — finish, so a
        consumer can stream them to disk while later slabs still compress.
        Every execution mode yields byte-identical blocks.
        """
        data = np.ascontiguousarray(data)
        profile = self.resolved_profile(data)
        slabs = block_slices(data.shape, self.n_blocks)
        segment = None
        if len(slabs) > 1 and self._effective_workers() > 1:
            segment = poolmap.create_segment(data.nbytes)
        if segment is not None:
            yield from self._compress_iter_shm(segment, data, profile, slabs)
            return
        # No transport, no pool: the plain in-process slab loop.
        for slc in slabs:
            blob = IPComp(profile=profile).compress(np.ascontiguousarray(data[slc]))
            yield CompressedBlock(slc, blob)

    def _compress_iter_shm(
        self, segment, data: np.ndarray, profile: CodecProfile, slabs: List[SliceTuple]
    ) -> Iterator[CompressedBlock]:
        try:
            view = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
            view[...] = data
            del view  # workers hold their own attachments; release ours
            batches = batch_slabs(
                slabs,
                data.shape,
                data.dtype.itemsize,
                self._effective_workers(),
                MIN_TASK_BYTES,
            )
            payloads = [
                (
                    profile,
                    segment.name,
                    tuple(data.shape),
                    str(data.dtype),
                    [slices_to_ranges(slc, data.shape) for slc in batch],
                )
                for batch in batches
            ]
            results = poolmap.imap_fallback(
                _compress_batch_shm, payloads, self._effective_workers()
            )
            for batch, blobs in zip(batches, results):
                for slc, blob in zip(batch, blobs):
                    yield CompressedBlock(slc, blob)
        finally:
            poolmap.release_segment(segment)

    # ----------------------------------------------------- container entries

    def compress_into(
        self, writer, data: np.ndarray, *, keep_blobs: bool = True
    ) -> List[CompressedBlock]:
        """Compress ``data``, streaming one ``shard-NNNN`` entry per slab.

        ``writer`` is any object with the
        :meth:`repro.io.BlockContainerWriter.add_block` interface (duck-typed
        so this module needs no dependency on :mod:`repro.io`).  Each entry's
        metadata records the slab's global slice extents.  Shards are written
        **as they are produced** — the container receives shard ``k`` while
        later slabs are still compressing, and no list of all streams is
        materialised first.  The blocks are also returned for callers that
        want to keep them in memory; ``keep_blobs=False`` returns them with
        empty payloads (slab extents only) so writing a large dataset does
        not retain every compressed stream.
        """
        data = np.asarray(data)
        blocks: List[CompressedBlock] = []
        for index, block in enumerate(self.compress_iter(data)):
            writer.add_block(
                shard_name(index),
                block.blob,
                {"slices": slices_to_ranges(block.slices, data.shape)},
            )
            blocks.append(block if keep_blobs else CompressedBlock(block.slices, b""))
        return blocks

    @staticmethod
    def blocks_from_entries(reader, names: Optional[Sequence[str]] = None) -> List[CompressedBlock]:
        """Rehydrate :class:`CompressedBlock` objects from container entries.

        ``reader`` is any object with the
        :meth:`repro.io.BlockContainerReader.read_block` / ``metadata`` /
        ``block_names`` interface.  ``names`` defaults to every
        ``shard-NNNN`` entry in directory order.
        """
        if names is None:
            names = [n for n in reader.block_names() if n.startswith(SHARD_PREFIX)]
        blocks = []
        for name in names:
            meta = reader.metadata(name)
            try:
                slices = ranges_to_slices(meta["slices"])
            except (KeyError, TypeError, ValueError):
                raise StreamFormatError(
                    f"container entry {name!r} has no slab extents"
                ) from None
            blocks.append(CompressedBlock(slices, reader.read_block(name)))
        return blocks

    # ------------------------------------------------------------- retrieval

    def decompress(
        self, blocks: Sequence[CompressedBlock], shape: Sequence[int], dtype=np.float64
    ) -> np.ndarray:
        """Fully decompress and reassemble the original field (in-process)."""
        return self._reassemble(blocks, shape, dtype, None)

    def retrieve(
        self,
        blocks: Sequence[CompressedBlock],
        shape: Sequence[int],
        error_bound: float,
        dtype=np.float64,
    ) -> np.ndarray:
        """Progressively retrieve every slab at ``error_bound`` and reassemble."""
        return self._reassemble(blocks, shape, dtype, float(error_bound))

    @staticmethod
    def _reassemble(
        blocks: Sequence[CompressedBlock],
        shape: Sequence[int],
        dtype,
        error_bound: Optional[float],
    ) -> np.ndarray:
        """Decode each blob (``None`` = its stored bound) and scatter it."""
        pieces = []
        for block in blocks:
            retriever = ProgressiveRetriever(block.blob)
            target = (
                error_bound if error_bound is not None else retriever.header.error_bound
            )
            pieces.append((block.slices, retriever.retrieve(error_bound=target).data))
        return reassemble(shape, pieces, dtype)

    @staticmethod
    def compressed_bytes(blocks: Sequence[CompressedBlock]) -> int:
        """Total compressed size across all slabs."""
        return sum(b.nbytes for b in blocks)
