"""File-backed chunked dataset with ROI-progressive retrieval.

:class:`ChunkedDataset` is the storage-layer integration the paper's Figures
6/7 presuppose: a large field is compressed **directly into a block-container
file** — one independent IPComp stream per slab (a *shard*) plus a JSON
manifest — and every retrieval afterwards reads only the byte ranges it
needs:

* ``read(error_bound=...)`` reconstructs the full field, loading from each
  shard only the bitplane blocks the optimized loader's plan selects;
* ``read(roi=..., error_bound=...)`` opens **only the shards intersecting
  the region of interest** — untouched shards cost zero bytes;
* ``refine(...)`` is the stateful path: it keeps one
  :class:`~repro.core.progressive.ProgressiveRetriever` per shard alive, so
  a tighter follow-up request runs Algorithm 2 per shard and loads only the
  *new* plane blocks, never re-reading a byte range it already has.

Requests are served by the :class:`~repro.retrieval.engine.RetrievalEngine`
pipeline — fetch-op planning, with one source read per op; for a remote
dataset (``prefetch > 0``, the default there) a prime cache over the
event-loop prefetcher that fetches each request's ops as one wave and
overlaps round trips with decode; and an in-process decode of each
shard's plan.  A local file reads synchronously whatever ``prefetch`` says.
All of it is a pure runtime choice: decoded output is bitwise-identical,
and the reported accounting is *consumption-based* — the ranges each
shard's :class:`~repro.core.stream.CompressedStore` recorded, identical on
every path.

A file or URL that is a **bare IPComp stream** opens as a dataset of one
shard named ``"stream"`` (:data:`~repro.io.container.STREAM_BLOCK`): the
reader presents it as a one-block directory and its own header supplies
shape, dtype and bound, so everything above — the engine, the serving
layer, the CLI — handles one kind of object.

Every request returns the engine's
:class:`~repro.retrieval.engine.DatasetReadResult` (re-exported here) as it
is, carrying the exact bytes touched (header and anchor included) and the
``(shard, offset, length)`` ranges consumed — the quantities the ROI
benchmark asserts on.  The dataset resolves the target once
(:meth:`ChunkedDataset._validated_target`); the engine takes it as given.

File layout (a :mod:`repro.io.container` block container)::

    shard-0000 | shard-0001 | ... | headers | manifest | footer

The manifest (version 2) records shape, dtype, slab slices, the global
absolute error bound, and the full resolved
:class:`~repro.core.profile.CodecProfile` the shards were written with;
version-1 manifests (method / prefix bits as loose fields) are still read.
The ``headers`` block holds a byte copy of each shard's stream prefix
(magic, version/length word, header), and the manifest's optional
``"headers"`` key maps each shard to the ``[offset, length]`` of its copy.
It sits just before the manifest, so a remote open's one read of the
object's tail (:data:`~repro.io.aio.OPENING_WINDOW`) normally carries it,
and every shard is pinned from it without a read of its own
(:class:`~repro.retrieval.engine.HeaderCopies`).  An archive without it —
written before the block existed — parses each shard's own head; an older
reader ignores the key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.profile import CodecProfile
from repro.core.progressive import ProgressiveRetriever
from repro.core.stream import IPCompStream
from repro.errors import ConfigurationError, StreamFormatError, check_count
from repro.io.container import (
    STREAM_BLOCK,
    BlockContainerReader,
    BlockContainerWriter,
    is_container,
)
from repro.io.aio import open_remote_source
from repro.io.remote import is_url
from repro.parallel.executor import BlockParallelCompressor, shard_name
from repro.parallel.partition import (
    SliceTuple,
    normalize_roi,
    ranges_to_slices,
    slices_intersect,
)
from repro.retrieval.engine import DatasetReadResult, HeaderCopies, PinnedShard, RetrievalEngine
from repro.retrieval.plan import RetrievalPlan
from repro.retrieval.prefetch import default_prefetch_depth

MANIFEST_BLOCK = "manifest"
#: The block of shard header copies, and the manifest key that places them.
HEADERS_BLOCK = "headers"
FORMAT_NAME = "repro-chunked-dataset"
FORMAT_VERSION = 2
SUPPORTED_MANIFEST_VERSIONS = (1, 2)
#: Distinct regions of interest whose shard selection a dataset remembers.
_SELECT_MEMO = 64


@dataclass
class DatasetShard:
    """One slab of the domain inside the container."""

    name: str
    slices: SliceTuple

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(s.stop - s.start for s in self.slices)


def _check_tiling(shape: Tuple[int, ...], shards: List[DatasetShard]) -> None:
    """Raise :class:`~repro.errors.StreamFormatError` unless the slabs tile
    ``shape`` exactly: each non-empty and inside the domain, no two
    overlapping, their volumes summing to the domain's.  A read decodes
    every shard into an uninitialised answer, so a gap or an overlap must
    never get that far."""
    if any(len(shard.slices) != len(shape) for shard in shards):
        raise StreamFormatError(f"a shard's slab does not have the field's {len(shape)} axes")
    bounds = [[(s.start, s.stop) for s in shard.slices] for shard in shards]
    try:
        bounds = np.array(bounds, dtype=np.int64).reshape(len(shards), len(shape), 2)
        extents = np.array(shape, dtype=np.int64)
    except OverflowError:
        raise StreamFormatError("a slab or the field's shape does not fit in 64 bits") from None
    starts, stops = bounds[..., 0], bounds[..., 1]
    bad = np.flatnonzero(((starts < 0) | (stops > extents) | (stops <= starts)).any(axis=1))
    if bad.size:
        raise StreamFormatError(
            f"shard {shards[bad[0]].name!r}: slab {bounds[bad[0]].tolist()} is empty "
            f"or outside the field {shape}"
        )
    # Two slabs overlap when they overlap along every axis; compared a band
    # of rows at a time, so the temporaries stay near 2^20 entries.
    step = max(1, (1 << 20) // (len(shards) * len(shape) or 1))
    for first in range(0, len(shards), step):
        band = slice(first, first + step)
        lower = np.maximum(starts[band, None], starts[None])
        overlap = (lower < np.minimum(stops[band, None], stops[None])).all(axis=2)
        rows = np.arange(overlap.shape[0])
        overlap[rows, first + rows] = False
        pairs = np.argwhere(overlap)
        if pairs.size:
            i, j = pairs[0]
            raise StreamFormatError(
                f"the slabs of shards {shards[first + i].name!r} and {shards[j].name!r} overlap"
            )
    covered = sum(math.prod(extent) for extent in (stops - starts).tolist())
    if covered != math.prod(shape):
        raise StreamFormatError(
            f"the shards' slabs cover {covered} of the field's {math.prod(shape)} points"
        )


class _HeaderCopier:
    """The writer :meth:`ChunkedDataset.write` hands the write transport:
    passes each shard block on, keeping a copy of its stream prefix
    (``copies``) and where that copy lies in the headers block
    (``placed``)."""

    def __init__(self, writer: BlockContainerWriter) -> None:
        self._writer = writer
        self.copies: List[bytes] = []
        self.placed: Dict[str, List[int]] = {}
        self._offset = 0

    def add_block(self, name: str, data: bytes, metadata: Optional[dict] = None) -> None:
        payload_start = IPCompStream.prefix_length(data)
        self.copies.append(bytes(data[:payload_start]))
        self.placed[name] = [self._offset, payload_start]
        self._offset += payload_start
        self._writer.add_block(name, data, metadata)


class ChunkedDataset:
    """Sharded, file-backed IPComp store with ROI-progressive reads.

    Open an existing file or ``http(s)://`` URL with ``ChunkedDataset(path)``
    (context-manager friendly) or create one with
    :meth:`ChunkedDataset.write`.  A **bare IPComp stream** opens too, as a
    dataset of one shard named ``"stream"`` spanning the domain, with shape
    / dtype / bound from the stream's own header and ``manifest`` ``None``
    — nothing above :mod:`repro.io` tells the two kinds of file apart.
    Reading takes no codec profile (shards are self-describing streams);
    its one runtime knob is a keyword here and nowhere else, a non-negative
    integer that changes no reported byte or decoded bit.  ``prefetch``
    means something for a remote dataset only — ``0`` reads serially, any
    positive value multiplexes, ``None`` is
    :func:`~repro.retrieval.prefetch.default_prefetch_depth` (multiplexed);
    a local file reads synchronously whatever it says.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        prefetch: Optional[int] = None,
        source=None,
    ) -> None:
        try:
            if prefetch is not None:
                check_count("prefetch", prefetch)
        except ConfigurationError:
            # A handed-in source belongs to the dataset, even one never built.
            closer = getattr(source, "close", None)
            if closer is not None:
                closer()
            raise
        # ``path`` may be an ``http(s)://`` URL: the file is then read
        # through a resilient remote stack (default one, or the caller's
        # pre-built ``source`` — e.g. with mirrors / fault injection).
        self.is_remote = source is not None or is_url(path)
        if source is None and self.is_remote:
            source = open_remote_source(str(path))
        self.path: Union[str, Path] = str(path) if self.is_remote else Path(path)
        self._reader = BlockContainerReader(
            source if source is not None else self.path
        )
        if prefetch is None:
            prefetch = default_prefetch_depth(self.is_remote)
        # The plan → prefetch → decode pipeline serving every request (it
        # owns the stateful per-shard retrievers of the refine() path, and
        # assembles every shard's source tower).
        self._engine = RetrievalEngine(self._reader.source, prefetch=prefetch)
        self._write_profile: Optional[CodecProfile] = None
        self._intersecting = lru_cache(maxsize=_SELECT_MEMO)(self._intersect)
        copies = None
        try:
            if self._reader.is_stream:
                self._describe_stream()
            else:
                copies = self._describe_manifest()
        except StreamFormatError:
            # Container-level corruption and format mismatches keep their
            # own diagnostics (StreamFormatError subclasses ValueError, so
            # this clause must come first).
            self.close()
            raise
        except (KeyError, TypeError, ValueError, UnicodeDecodeError) as exc:
            self.close()
            raise StreamFormatError(f"malformed dataset manifest: {exc!r}") from None
        self._engine.describe(
            self.dtype, copies, {shard.name: shard.shape for shard in self.shards}
        )

    def _describe_stream(self) -> None:
        """A bare stream: its own header is the manifest."""
        header = self.pinned_shard(STREAM_BLOCK).header
        self.manifest: Optional[dict] = None
        self.version = 0
        self.shape: Tuple[int, ...] = tuple(int(s) for s in header.shape)
        self.dtype = np.dtype(header.dtype)
        self.absolute_bound = float(header.error_bound)
        self.shards: List[DatasetShard] = [
            DatasetShard(STREAM_BLOCK, tuple(slice(0, s) for s in self.shape))
        ]

    def _describe_manifest(self) -> Optional[HeaderCopies]:
        """Read the manifest; returns the shards' header copies, if any."""
        if MANIFEST_BLOCK not in self._reader.directory:
            raise StreamFormatError(f"{self.path} is not a chunked dataset (no manifest)")
        manifest = json.loads(self._reader.read_block(MANIFEST_BLOCK).decode("utf-8"))
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
            raise StreamFormatError(f"{self.path} is not a chunked dataset")
        version = int(manifest.get("version", 0))
        if version not in SUPPORTED_MANIFEST_VERSIONS:
            raise StreamFormatError(
                f"unsupported dataset version {manifest.get('version')} "
                f"(supported: {SUPPORTED_MANIFEST_VERSIONS})"
            )
        self.manifest = manifest
        self.version = version
        self.shape = tuple(int(s) for s in manifest["shape"])
        self.dtype = np.dtype(manifest["dtype"])
        self.absolute_bound = float(manifest["error_bound"])
        if version >= 2 and "profile" not in manifest:
            raise StreamFormatError("dataset manifest v2 has no profile")
        self.shards = [
            DatasetShard(item["name"], ranges_to_slices(item["slices"]))
            for item in manifest["shards"]
        ]
        _check_tiling(self.shape, self.shards)
        placed = manifest.get(HEADERS_BLOCK)
        if placed is None:
            return None
        block_size = self._reader.block_size(HEADERS_BLOCK)
        extents = {}
        for shard in self.shards:
            offset, length = (int(v) for v in placed[shard.name])
            if offset < 0 or length < 0 or offset + length > block_size:
                raise StreamFormatError(
                    f"header copy of shard {shard.name!r} at [{offset}, "
                    f"{offset + length}) outside the {block_size} B headers block"
                )
            extents[shard.name] = (offset, length, self._reader.block_size(shard.name))
        return HeaderCopies(lambda: self._reader.read_block(HEADERS_BLOCK), extents)

    @property
    def write_profile(self) -> CodecProfile:
        """The codec profile the shards were written with (informational).

        Built lazily so that *opening and reading* a dataset never validates
        it: the shards are self-describing streams and decode without it.
        The coder fields that manifests written before 5.0 carry are
        dropped on load (:data:`~repro.core.profile.LEGACY_JSON_KEYS`).
        """
        if self._write_profile is None:
            if self.version >= 2:
                self._write_profile = CodecProfile.from_json(self.manifest["profile"])
            else:
                # v1 manifests spell out the stream parameters as loose
                # fields (their ``backend`` names the coder of every block,
                # which each shard's own header records too); a bare
                # stream's header carries the same two.
                loose = self.manifest or self.pinned_shard(STREAM_BLOCK).header.to_json()
                self._write_profile = CodecProfile.from_options(
                    None,
                    error_bound=self.absolute_bound,
                    relative=False,
                    method=str(loose["method"]),
                    prefix_bits=int(loose["prefix_bits"]),
                )
        return self._write_profile

    # ------------------------------------------------------------------ write

    @classmethod
    def write(
        cls,
        path: Union[str, Path],
        data: np.ndarray,
        *,
        profile: Optional[CodecProfile] = None,
        n_blocks: int = 4,
        workers: Optional[int] = None,
        **profile_overrides,
    ) -> dict:
        """Compress ``data`` into a new dataset file; returns the manifest.

        The one way to shard a field.  Configuration is one
        :class:`~repro.core.profile.CodecProfile` (``profile`` plus field
        overrides such as ``error_bound=`` / ``relative=`` / ``method=``).
        ``n_blocks`` slabs along the slowest axis each become one IPComp
        stream, produced by the write transport
        :class:`~repro.parallel.executor.BlockParallelCompressor`: two slabs
        in flight in this process (the calling thread and one
        ``repro-write`` thread), and no thread outlives the call.  The slabs'
        absolute bound is derived from the *global* value range, so the
        reassembled field honours the bound globally.  The resolved profile
        is embedded in the manifest, and a copy of every shard's stream
        header is written to the ``headers`` block (see the module
        docstring).  The file appears at ``path`` only when the write
        succeeds: a write that raises leaves whatever was there before
        untouched.  Read the shards back with :meth:`read` /
        :meth:`refine`.

        ``workers`` has no effect: it is validated (``None`` or a
        non-negative integer) and ignored, and goes once the benchmark
        harness stops passing it.
        """
        if workers is not None:
            check_count("workers", workers)
        data = np.asarray(data)
        if data.ndim == 0:
            # The slabs are cut along axis 0: a 0-d field has none.
            raise ConfigurationError("invalid shape (): a dataset field needs at least one axis")
        # Resolve the range-relative bound once (one min/max scan of the
        # field) and hand the compressor the already-absolute profile.
        resolved = CodecProfile.from_options(profile, **profile_overrides).resolve(data)
        compressor = BlockParallelCompressor(resolved, n_blocks)
        with BlockContainerWriter(path) as writer:
            # Shards stream straight into the container as each slab's
            # stream is produced; the manifest only needs the slab extents,
            # and the headers block each shard's stream prefix.
            copier = _HeaderCopier(writer)
            extents = compressor.compress_into(copier, data)
            writer.add_block(HEADERS_BLOCK, b"".join(copier.copies))
            manifest = {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "shape": [int(s) for s in data.shape],
                "dtype": str(data.dtype),
                "error_bound": float(resolved.error_bound),
                "profile": resolved.to_json(),
                "shards": [
                    {"name": shard_name(index), "slices": ranges}
                    for index, ranges in enumerate(extents)
                ],
                HEADERS_BLOCK: copier.placed,
            }
            writer.add_block(
                MANIFEST_BLOCK,
                json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode(),
            )
        return manifest

    @staticmethod
    def is_dataset(path: Union[str, Path]) -> bool:
        """Cheap check: is ``path`` a block container (and so possibly a dataset)?"""
        return is_container(path)

    # ------------------------------------------------------------------- reads

    def read(
        self,
        error_bound: Optional[float] = None,
        roi=None,
        *,
        bitrate: Optional[float] = None,
    ) -> DatasetReadResult:
        """One-shot retrieval of the full field or a region of interest.

        ``error_bound`` is the *absolute* L∞ target (``None`` retrieves at
        the dataset's stored bound, i.e. full precision); a single-shard
        dataset — a bare stream — may be asked for a ``bitrate`` (bits per
        value) instead.  Only the shards whose slabs intersect ``roi`` are
        opened; each contributes exactly the plane blocks its loader plan
        selects.  Stateless: a later ``read`` starts from scratch — use
        :meth:`refine` for incremental refinement.
        """
        roi_slices, selected = self.select(roi)
        target = self._validated_target(error_bound, bitrate)
        return self._engine.read(selected, roi_slices, target, bitrate)

    def refine(
        self,
        error_bound: Optional[float] = None,
        roi=None,
        *,
        bitrate: Optional[float] = None,
    ) -> DatasetReadResult:
        """Stateful ROI-progressive retrieval (Algorithm 2 per shard).

        Per-shard retrievers persist across calls: a shard touched before
        only loads the plane blocks the tighter target adds (never
        re-reading a byte range), and a shard entering the ROI for the first
        time is retrieved from scratch.  Fidelity never decreases, a rung is
        bitwise the :meth:`read` of the same plane selection, and a call
        whose source failed midway can be repeated (what arrived is kept,
        never read again).  Each call reads its shards' new fetch ops once —
        over a multiplexed remote dataset as one primed wave — and fetches
        nothing for a call not yet made: once it returns, no background
        read is left.
        """
        roi_slices, selected = self.select(roi)
        target = self._validated_target(error_bound, bitrate)
        return self._engine.refine(selected, roi_slices, target, bitrate)

    def plan(self, error_bound: Optional[float] = None, roi=None) -> RetrievalPlan:
        """Stage-1 planning only: the fetch ops a stateless request would run.

        The coalesced ``(shard, byte-range, planes)`` op list plus predicted
        bytes — what the CLI's ``info --roi`` prints, and what the serving
        layer costs and serves.  Reads only the shard headers, once per open
        dataset (:meth:`pinned_shard`), and runs one DP per shard and target
        — a repeat target is a lookup while the shard remembers it
        (:data:`~repro.retrieval.engine.PLAN_MEMO`); no payload is touched
        and no refine() state is disturbed.
        """
        _, selected = self.select(roi)
        return self._engine.plan(selected, self._validated_target(error_bound))

    # ------------------------------------------------------------------ guts

    def _validated_target(
        self, error_bound: Optional[float], bitrate: Optional[float] = None
    ) -> Optional[float]:
        if bitrate is not None:
            if self.n_shards > 1:
                raise ConfigurationError(
                    "container retrieval targets an error bound, not a bitrate"
                )
            if error_bound is not None:
                raise ConfigurationError("specify exactly one of error_bound, bitrate")
            return None
        target = self.absolute_bound if error_bound is None else float(error_bound)
        if target <= 0 or not np.isfinite(target):
            raise ConfigurationError("error_bound must be a positive finite number")
        return target

    def select(self, roi) -> Tuple[SliceTuple, List[DatasetShard]]:
        """Normalize ``roi`` and list the shards whose slabs intersect it.

        Public because the serving layer serves per-shard work itself: it
        needs the same ``(normalized roi, selected shards)`` answer the
        internal read paths use, without issuing a read.  The selections of
        the last ``_SELECT_MEMO`` (64) normalized regions are remembered.
        """
        if roi is None:
            roi_slices = tuple(slice(0, s) for s in self.shape)
            return roi_slices, list(self.shards)
        roi_slices = normalize_roi(roi, self.shape)
        bounds = tuple((s.start, s.stop) for s in roi_slices)
        return roi_slices, list(self._intersecting(bounds))

    def _intersect(self, bounds: Tuple[Tuple[int, int], ...]) -> Tuple[DatasetShard, ...]:
        roi_slices = tuple(slice(start, stop) for start, stop in bounds)
        return tuple(s for s in self.shards if slices_intersect(s.slices, roi_slices))

    # ------------------------------------------------------------- properties

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def open_shard(self, name: str, wrap=None) -> ProgressiveRetriever:
        """A fresh retriever over one shard's embedded IPComp stream.

        It reads through the engine's assembled tower over the dataset's
        open reader (:meth:`~repro.retrieval.engine.RetrievalEngine.open_sources`):
        the block source itself for a local file, a prime cache over it for
        a multiplexed remote one — with ``wrap(name, source)``, the serving
        layer's ``source_filter``, applied beneath the cache — and over the
        shard's pinned header (:meth:`pinned_shard`), parsed on first need.
        """
        (retriever,) = self._engine.open_retrievers([name], wrap)
        return retriever

    def pinned_shard(self, name: str) -> PinnedShard:
        """One shard's stream header, block extents and loader, parsed once
        per open dataset (:class:`~repro.retrieval.engine.PinnedShard`)."""
        (pinned,) = self._engine.pin([name])
        return pinned

    @property
    def physical_reads(self) -> int:
        """Physical ``read_range`` calls on the container since open.

        Consumption-based accounting reports what a request *used*; this
        counter reports what actually hit the file — the serving layer's
        warm-cache tests assert it stays flat across a cache hit.
        """
        return self._reader.n_reads

    @property
    def file_bytes(self) -> int:
        if self.is_remote:
            return self._reader.file_size
        return self.path.stat().st_size

    def current_keep(self) -> Dict[str, Dict[int, int]]:
        """Resident planes per stateful shard retriever (diagnostics)."""
        return self._engine.current_keep()

    def close(self) -> None:
        self._engine.close()
        self._reader.close()

    def __enter__(self) -> "ChunkedDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
