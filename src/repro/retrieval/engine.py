"""The retrieval engine: one façade driving plan → prefetch → decode.

:class:`RetrievalEngine` owns everything between "a fidelity request over a
set of shards" and "an assembled array plus its exact I/O accounting", and
it is where the path from a request to the bytes is assembled — once, in
:meth:`RetrievalEngine.open_sources`::

    ChunkedDataset(path or URL) → RetrievalEngine → per shard CompressedStore
        → [PrefetchSource over the event-loop prefetcher]  remote and prefetch > 0 only
        → BlockSource → BlockContainerReader → file | remote stack

* **stage 1 (plan)** — every selected shard's
  :meth:`~repro.core.progressive.ProgressiveRetriever.pending_ops` yields
  the deduplicated, coalesced fetch ops of the request
  (:mod:`repro.retrieval.plan`); the retriever reads each op with one
  source read.  Every request opens its stores over the shards'
  :class:`PinnedShard` — header, block extents and loader, parsed once
  per engine, from the archive's header copies (:class:`HeaderCopies`)
  when it has them — and a plan on its own (:meth:`RetrievalEngine.plan`:
  ``ChunkedDataset.plan``, the serving layer's cost and serve) comes from
  the same pins, each of which remembers its last :data:`PLAN_MEMO` plans:
  a (shard, target) pair is planned once while it stays among them;
* **stage 2 (prefetch)** — over sources that ``supports_async`` (a remote
  stack) and with ``prefetch > 0``, the heads of shards not yet pinned
  (legacy-layout archives and bare streams only) and then all shards' ops
  are primed through one shared
  :class:`~repro.io.aio.AsyncPrefetcher`, each as one wave of round trips,
  one future per op.  Each plan is primed once, by the request that reads
  it; nothing is fetched for a request nobody made.  A local file has no
  stage 2: the store reads its block source directly;
* **stage 3 (decode)** — each shard's retriever decodes its plan
  in-process and :func:`assemble` scatters the slabs into the answer.

Every request returns one :class:`DatasetReadResult` — the type
:class:`~repro.io.dataset.ChunkedDataset` hands its callers as it is — for
a target the dataset resolved: an absolute bound, or a bitrate.

Byte accounting is **consumption-based**: each request reports the ranges
its stores recorded (:attr:`repro.core.stream.CompressedStore.trace` — per
block, identical on every path), never the physical prefetch I/O — so
multiplexing changes no reported number, only wall-clock time.  Decoded
output is bitwise-identical across serial / multiplexed reads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.optimizer import OptimizedLoader
from repro.core.progressive import ProgressiveRetriever
from repro.core.stream import BlockExtents, BytesSource, CompressedStore, IPCompStream
from repro.errors import StreamFormatError
from repro.parallel.partition import SliceTuple, intersect_slab_roi
from repro.retrieval.plan import RetrievalPlan, ShardPlan, plan_stream_ops
from repro.retrieval.prefetch import PrefetchSource

__all__ = ["DatasetReadResult", "HeaderCopies", "PinnedShard", "RetrievalEngine", "assemble"]

#: Bytes primed at the head of each remote shard before its header is
#: parsed, for legacy-layout archives and bare streams only (an archive
#: with a ``headers`` block parses its shards from the copies there,
#: :class:`HeaderCopies`): the stream header lives there, so header parsing
#: — otherwise a serial round trip per shard — rides one multiplexed batch.
#: A fetch op inside the head is later answered from it; one running past
#: its end is fetched whole.  Consumed-trace accounting is untouched.
DEFAULT_HEADER_PRIME = 8192

#: Plans a pinned shard remembers, least recently used out first: a serving
#: session asks each shard for a few fidelities (a ladder's rungs) again and
#: again.
PLAN_MEMO = 8


def assemble(
    pieces: Sequence[Tuple[SliceTuple, np.ndarray]],
    roi_slices: SliceTuple,
    dtype,
) -> np.ndarray:
    """Scatter decoded slab pieces into a fresh ROI-shaped output array.

    Each ``(slab slices, slab array)`` piece contributes its slab∩ROI
    overlap; the pieces must tile the region exactly (short coverage —
    e.g. a manifest whose slabs miss part of the domain — raises
    :class:`~repro.errors.StreamFormatError`).  Shared by the engine's
    in-process decode stage and the serving layer's cache-mixing reads.
    """
    out_shape = tuple(s.stop - s.start for s in roi_slices)
    out = np.empty(out_shape, dtype=np.dtype(dtype))
    filled = 0
    for slab, data in pieces:
        sel_out, sel_in = intersect_slab_roi(slab, roi_slices)
        piece = data[sel_in]
        out[sel_out] = piece
        filled += piece.size
    if filled != out.size:
        raise StreamFormatError(f"shards cover {filled} of the region's {out.size} points")
    return out


class _Charge:
    """A physical read cost handed out once: :meth:`take` returns
    ``(reads, bytes)`` on its first call, then ``(0, 0)``."""

    def __init__(self, reads: int, nbytes: int) -> None:
        self._cost = (reads, nbytes)
        self._lock = threading.Lock()

    def take(self) -> Tuple[int, int]:
        with self._lock:
            cost, self._cost = self._cost, (0, 0)
        return cost


class PinnedShard(BlockExtents):
    """One shard's metadata, parsed once per open dataset.

    The stream header and payload offset (``header`` / ``header_bytes``,
    the ``parsed=`` pair of a :class:`~repro.core.stream.CompressedStore`),
    the block extents the planner walks, the shard's
    :class:`~repro.core.optimizer.OptimizedLoader`, and the last
    :data:`PLAN_MEMO` plans made from them (:meth:`plan`).  It holds no
    source: nothing reads through it after the parse.  ``source`` is the
    shard itself, or a :class:`~repro.core.stream.BytesSource` over its
    header copy (:class:`HeaderCopies`), in which case ``size`` is the
    shard's and ``charge`` the copies block's.  The parse's physical cost
    — its two header reads, or the one read of the copies block shared by
    every shard of the dataset — is handed out once by :meth:`claim_parse`,
    so a server can charge it to exactly one request.
    """

    def __init__(
        self, source, name: str, *, size: Optional[int] = None, charge: Optional[_Charge] = None
    ) -> None:
        header, payload_start = IPCompStream.parse_header_source(source)
        super().__init__(header, payload_start, source.size if size is None else size)
        self.name = name
        self._charge = _Charge(2, payload_start) if charge is None else charge
        # A plan is a pure function of the pinned header and the target, so
        # a remembered one is the plan by construction.
        self.plan = lru_cache(maxsize=PLAN_MEMO)(self._plan)

    @cached_property
    def loader(self) -> OptimizedLoader:
        """Built by the first plan: an engine read plans through its
        retrievers' own loaders and never needs this one."""
        return OptimizedLoader(self.header, overhead_bytes=self.overhead_bytes)

    def _plan(self, target: float) -> ShardPlan:
        """The from-scratch plan at absolute bound ``target``: one DP run
        and one op walk, remembered by :meth:`plan`."""
        loading = self.loader.plan_for_error_bound(target)
        return ShardPlan(
            shard=self.name,
            ops=plan_stream_ops(self, None, loading.keep, include_anchor=True, shard=self.name),
            header_bytes=self.header_bytes,
            loading_plan=loading,
        )

    def claim_parse(self) -> Tuple[int, int]:
        """``(reads, bytes)`` of the header parse on the first call, then
        ``(0, 0)``.  Shards pinned from one copies block share its charge:
        the first of them to claim gets the block read."""
        return self._charge.take()


class HeaderCopies:
    """An archive's ``headers`` block: a byte copy of each shard's stream
    prefix (``[0, payload_start)``: magic, version/length word, header).

    ``read()`` returns the block; it runs once, on the first :meth:`pin`,
    so an open dataset makes one read of it and none per shard, and over a
    remote stack the block usually lies inside the opening read.
    ``extents`` maps each shard to ``(offset, length, shard size, slab
    shape)``: where its copy lies in the block, and what the copy must
    describe.  A copy is trusted only once it is checked against both, with
    no read of the shard itself: it must parse, fill its slice exactly,
    account for every byte of the shard (``payload_start +
    payload_bytes() == size``) and carry the slab's shape.
    """

    def __init__(self, read: Callable[[], bytes], extents: Dict[str, tuple]) -> None:
        self._read = read
        self._extents = extents
        self._block: Optional[bytes] = None
        self._charge: Optional[_Charge] = None

    def pin(self, name: str) -> PinnedShard:
        """``name``'s :class:`PinnedShard`, parsed from its copy (the
        caller serialises pins: the engine holds its pin lock)."""
        if self._block is None:
            block = self._read()
            self._block, self._charge = block, _Charge(1, len(block))
        offset, length, size, shape = self._extents[name]
        copy = self._block[offset : offset + length]
        try:
            pinned = PinnedShard(BytesSource(copy), name, size=size, charge=self._charge)
            if pinned.header_bytes != length:
                raise StreamFormatError(
                    f"the header ends at {pinned.header_bytes}, not at {length}"
                )
            total = pinned.header_bytes + pinned.header.payload_bytes()
            if total != size:
                raise StreamFormatError(f"header and blocks total {total} B, the shard {size} B")
            if tuple(pinned.header.shape) != tuple(shape):
                raise StreamFormatError(
                    f"shape {tuple(pinned.header.shape)}, the slab {tuple(shape)}"
                )
        except StreamFormatError as exc:
            raise StreamFormatError(f"header copy of shard {name!r}: {exc}") from None
        return pinned


@dataclass
class DatasetReadResult:
    """One ROI-progressive request: data plus its exact I/O cost."""

    data: np.ndarray
    roi: SliceTuple
    error_bound: float
    bytes_loaded: int
    cumulative_bytes: int
    shards: List[str]
    ranges: List[Tuple[str, int, int]]

    def bitrate(self) -> float:
        """Bits loaded by this request per value it returned."""
        return 8.0 * self.bytes_loaded / self.data.size


class RetrievalEngine:
    """Plan → prefetch → decode pipeline over a set of shard streams.

    ``open_source(name)`` returns a fresh byte-range source for one shard
    (duck-typed; the chunked dataset passes container block sources).
    ``prefetch`` has one meaning — ``0`` reads serially, any positive value
    multiplexes — and only for sources that ``supports_async``; a local
    file reads synchronously whatever it says.  :meth:`describe` supplies
    the dtype before the first request.  Every request takes its target as
    the dataset resolved it: an absolute bound, or ``None`` and a bitrate.
    """

    def __init__(
        self,
        open_source: Callable[[str], object],
        *,
        prefetch: int = 0,
    ) -> None:
        self._open_source = open_source
        self.prefetch = int(prefetch)
        # The event-loop prefetcher, created with the first remote tower and
        # shared by every shard (one burst merges all of their ranges).
        self._prefetcher = None
        self._lock = threading.Lock()  # serving threads open towers concurrently
        # Shards pinned through :meth:`pin` (the only header cache); a store
        # built for one of these is handed the parse instead of re-reading it.
        self._pinned: Dict[str, PinnedShard] = {}
        self._copies: Optional[HeaderCopies] = None
        self._pin_lock = threading.Lock()
        # Stateful per-shard retrievers (refine() path).
        self._retrievers: Dict[str, ProgressiveRetriever] = {}
        self.cumulative_bytes = 0

    def describe(self, dtype, copies: Optional[HeaderCopies] = None) -> None:
        """The dtype of the answers, and the archive's header copies
        (``None`` for a legacy-layout archive or a bare stream, whose shards
        are parsed from their own heads).  A bare stream's dtype comes from
        its own header, read through :meth:`pin` — hence not a constructor
        argument."""
        self.dtype = np.dtype(dtype)
        self._copies = copies

    # ------------------------------------------------------------------ wiring

    def open_sources(self, names: Sequence[str], wrap=None) -> list:
        """Fresh byte-range sources for ``names`` — the one place the tower
        between a :class:`~repro.core.stream.CompressedStore` and the bytes
        is assembled.

        ``wrap(name, source)`` (the serving layer's fault-injection hook)
        goes around the raw shard source, *beneath* the prime cache.  A
        source that ``supports_async`` is read through a
        :class:`PrefetchSource` when ``prefetch > 0``; anything else —
        every local file — is returned as it is.
        """
        towers = []
        for name in names:
            source = self._open_source(name)
            if wrap is not None:
                source = wrap(name, source)
            if self.prefetch > 0 and getattr(source, "supports_async", False):
                source = PrefetchSource(source, self._prefetcher_on(source))
            towers.append(source)
        return towers

    def _prefetcher_on(self, source):
        """The engine's one prefetcher, made on first need."""
        with self._lock:
            if self._prefetcher is None:
                from repro.io.aio import AsyncPrefetcher
                from repro.io.remote import find_remote_source

                # On the loop thread the remote stack was opened on: its
                # pool and window primitives are bound to that loop.
                self._prefetcher = AsyncPrefetcher(
                    loop=find_remote_source(source).loop_thread
                )
            return self._prefetcher

    def pin(self, names: Sequence[str]) -> List[PinnedShard]:
        """The :class:`PinnedShard` of each named shard, parsed once per
        engine, under a lock, so two requests touching a shard first at the
        same moment parse it once.  An archive with header copies parses
        each shard from its copy (:class:`HeaderCopies`: one read of the
        block per engine, none per shard).  Otherwise shards not yet pinned
        are parsed from their own heads, together — over a remote dataset
        the heads are primed as one burst, so the parses ride one wave of
        round trips."""
        self._parse(names)
        return [self._pinned[name] for name in names]

    def _parse(self, names: Sequence[str]) -> Dict[str, object]:
        """Pin the shards of ``names`` not pinned yet; returns the tower each
        was parsed over (none when parsed from its copy)."""
        if all(name in self._pinned for name in names):
            return {}
        with self._pin_lock:
            missing = [name for name in names if name not in self._pinned]
            if self._copies is not None:
                for name in missing:
                    self._pinned[name] = self._copies.pin(name)
                return {}
            sources = self.open_sources(missing)
            heads = [s for s in sources if isinstance(s, PrefetchSource)]
            if heads:
                with self._prefetcher.burst():
                    for source in heads:
                        source.prime([(0, min(DEFAULT_HEADER_PRIME, source.size))])
            for name, source in zip(missing, sources):
                self._pinned[name] = PinnedShard(source, name)
            return dict(zip(missing, sources))

    def open_retrievers(self, names: Sequence[str], wrap=None) -> List[ProgressiveRetriever]:
        """One fresh retriever per shard over its pinned header (:meth:`pin`)
        — for the engine's own requests and the serving layer's cold serves
        alike.  A shard pinned from its own head by this call is read over
        the tower it was parsed over, whose head prime then answers the ops
        inside it for every rung; any other gets a fresh
        :meth:`open_sources` tower (``wrap`` as there)."""
        parsed_over = self._parse(names)
        retrievers = []
        for name in names:
            pinned = self._pinned[name]
            source = parsed_over.get(name) if wrap is None else None
            if source is None:
                (source,) = self.open_sources([name], wrap)
            store = CompressedStore(source, parsed=(pinned.header, pinned.header_bytes))
            retrievers.append(ProgressiveRetriever(store))
        return retrievers

    # ---------------------------------------------------------------- planning

    def plan(self, shards: Sequence, error_bound: float) -> RetrievalPlan:
        """Stage 1 only: the fetch ops a *stateless* request would perform.

        Each shard is planned from its :class:`PinnedShard` with no
        retriever, so no payload is touched and no stateful retriever is
        disturbed; a repeat plan reads nothing and, while the shard
        remembers the target, runs no DP either.  Every
        :class:`~repro.retrieval.plan.ShardPlan` carries its
        :class:`~repro.core.optimizer.LoadingPlan` for the serve that
        follows.
        """
        return RetrievalPlan(
            [pinned.plan(error_bound) for pinned in self.pin([shard.name for shard in shards])]
        )

    # ---------------------------------------------------------------- requests

    def read(
        self,
        shards: Sequence,
        roi_slices: SliceTuple,
        error_bound: Optional[float],
        bitrate: Optional[float] = None,
    ) -> DatasetReadResult:
        """Stateless retrieval: fresh retrievers, decoded in-process."""
        return self._request(shards, roi_slices, error_bound, bitrate, {})

    def refine(
        self,
        shards: Sequence,
        roi_slices: SliceTuple,
        error_bound: Optional[float],
        bitrate: Optional[float] = None,
    ) -> DatasetReadResult:
        """Stateful retrieval (Algorithm 2 per shard).

        Every answer is bitwise the ``read()`` of the same bound whenever the
        resident plane selection is that read's (always, on a ladder of
        tightening bounds whose plans nest): a shard's output is rebuilt
        from its resident rows, never summed from deltas.  A call that
        raised midway left every shard consistent and can be repeated.
        Nothing is fetched past what the call reads: once it returns, no
        background read of the dataset is left.
        """
        return self._request(shards, roi_slices, error_bound, bitrate, self._retrievers)

    # ------------------------------------------------------------------- guts

    def _request(
        self,
        shards: Sequence,
        roi_slices: SliceTuple,
        error_bound: Optional[float],
        bitrate: Optional[float],
        retrievers: Dict[str, ProgressiveRetriever],
    ) -> DatasetReadResult:
        trace_start = {
            name: len(retriever.store.trace) for name, retriever in retrievers.items()
        }
        # Every new shard is pinned together, so over a remote dataset their
        # header parses are one wave.
        fresh = [shard.name for shard in shards if shard.name not in retrievers]
        retrievers.update(zip(fresh, self.open_retrievers(fresh)))
        # Stage 1 for *all* shards, then stage 2 as one burst: the
        # prefetcher sees every shard's ops together and merges them into
        # one wave of round trips, and the reads for later shards proceed
        # while the first shard decodes.  Each plan is handed on to its
        # retrieve() call below, which reads the primed ops.
        selected = [retrievers[shard.name] for shard in shards]
        plans = [retriever.plan_request(error_bound, bitrate) for retriever in selected]
        if self._prefetcher is not None:
            with self._prefetcher.burst():
                for retriever, plan in zip(selected, plans):
                    retriever._prime(plan)
        pieces: List[Tuple[SliceTuple, np.ndarray]] = []
        achieved = 0.0
        remaining = list(zip(shards, selected, plans))
        while remaining:
            index = 0
            if self._prefetcher is not None and len(remaining) > 1:
                # Streaming handoff: decode a shard whose primed ranges
                # have all landed rather than blocking on plan order — the
                # first shard still fetching overlaps with another shard's
                # decode.  Output and accounting are order-independent.
                index = next(
                    (
                        i
                        for i, (_shard, retriever, _plan) in enumerate(remaining)
                        if getattr(retriever.store.source, "inflight", 0) == 0
                    ),
                    0,
                )
            shard, retriever, plan = remaining.pop(index)
            result = retriever.retrieve(plan=plan)
            achieved = max(achieved, result.error_bound)
            pieces.append((shard.slices, result.data))
        ranges: List[Tuple[str, int, int]] = []
        for shard, retriever in zip(shards, selected):
            for offset, length in retriever.store.trace[trace_start.get(shard.name, 0):]:
                ranges.append((shard.name, offset, length))
        data = assemble(pieces, roi_slices, self.dtype)
        bytes_loaded = sum(length for _, _, length in ranges)
        self.cumulative_bytes += bytes_loaded
        return DatasetReadResult(
            data=data,
            roi=roi_slices,
            error_bound=achieved,
            bytes_loaded=bytes_loaded,
            cumulative_bytes=self.cumulative_bytes,
            shards=[s.name for s in shards],
            ranges=ranges,
        )

    # ------------------------------------------------------------------- state

    def current_keep(self) -> Dict[str, Dict[int, int]]:
        """Resident planes per stateful shard retriever (diagnostics)."""
        return {
            name: retriever.current_keep
            for name, retriever in self._retrievers.items()
        }

    def close(self) -> None:
        self._retrievers.clear()
        if self._prefetcher is not None:
            self._prefetcher.close()
            self._prefetcher = None
