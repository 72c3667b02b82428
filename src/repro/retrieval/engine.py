"""The retrieval engine: one façade driving plan → prefetch → pool-decode.

:class:`RetrievalEngine` owns everything between "a fidelity request over a
set of shards" and "an assembled array plus its exact I/O accounting":

* **stage 1 (plan)** — every selected shard's
  :meth:`~repro.core.progressive.ProgressiveRetriever.pending_ops` yields
  the deduplicated, coalesced fetch ops of the request
  (:mod:`repro.retrieval.plan`);
* **stage 2 (prefetch)** — with a prefetch depth configured, all shards'
  ops are primed up front through one shared :class:`Prefetcher`, so the
  range reads of shard *k+1* overlap the decode of shard *k*; after a
  stateful ``refine()`` the engine speculatively primes the next fidelity
  rung (``target / rung_factor``) so a follow-up refinement finds its
  blocks already resident — physically read once, attributed to the
  request that consumes them;
* **stage 3 (decode)** — in-process per-shard decode by default; with
  ``workers > 1`` a *stateless* read of a local container is dispatched to
  the pool decode stage (:mod:`repro.retrieval.pooldecode`), whose workers
  do the same plan-then-load retrieval against their own reader and write
  the slabs straight into a shared output segment.  *Shared memory or
  in-process*: without a segment the read runs the in-process path.

Byte accounting is **consumption-based**: each request reports the ranges
its decoding actually consumed (per block, identical to the synchronous
path), never the physical prefetch I/O — so turning prefetching on changes
no reported number, only wall-clock time.  Decoded output is
bitwise-identical across serial / prefetch / pool paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.progressive import ProgressiveRetriever
from repro.errors import StreamFormatError
from repro.parallel.partition import (
    SliceTuple,
    intersect_slab_roi,
    slices_to_ranges,
)
from repro.retrieval.plan import RetrievalPlan, ShardPlan
from repro.retrieval.prefetch import Prefetcher, PrefetchSource, default_prefetch_depth

__all__ = ["EngineResult", "RetrievalEngine", "assemble", "open_stream_source"]

#: Default speculation ratio: after serving a refine() at bound E, prefetch
#: the plan for E / DEFAULT_RUNG_FACTOR (the ladder step the benchmarks and
#: examples use) in the background.
DEFAULT_RUNG_FACTOR = 8.0

#: Bytes speculatively primed at the head of each shard before its
#: retriever is constructed (async-capable sources only): the stream header
#: lives there, so header parsing — otherwise a serial round-trip per shard
#: — rides one multiplexed batch.  Consumed-trace accounting is untouched;
#: the over-fetch is ordinary speculation.
DEFAULT_HEADER_PRIME = 8192


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
        raise StreamFormatError(
            f"shards cover {filled} of the region's {out.size} points"
        )
    return out


@dataclass
class EngineResult:
    """One engine request: per-shard pieces assembled, plus exact I/O cost."""

    data: np.ndarray
    error_bound: float
    bytes_loaded: int
    cumulative_bytes: int
    shards: List[str]
    ranges: List[Tuple[str, int, int]]


class RetrievalEngine:
    """Plan → prefetch → pool-decode pipeline over a set of shard streams.

    ``open_source(name)`` returns a fresh byte-range source for one shard
    (duck-typed, so the engine has no dependency on :mod:`repro.io`; the
    chunked dataset passes container block sources).  ``path`` — when the
    shards live in a local container file — enables the pool decode stage
    for stateless reads; without it (a remote dataset) ``workers`` requests
    decode in-process.  ``stored_bound`` is the fidelity served when a
    request passes no target.
    """

    def __init__(
        self,
        open_source: Callable[[str], object],
        *,
        shape: Sequence[int],
        dtype,
        stored_bound: float,
        prefetch: int = 0,
        workers: int = 0,
        path=None,
        speculate: bool = True,
        rung_factor: float = DEFAULT_RUNG_FACTOR,
    ) -> None:
        self._open_source = open_source
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.stored_bound = float(stored_bound)
        self.prefetch = max(0, int(prefetch or 0))
        self.workers = max(0, int(workers or 0))
        self.path = path
        self.speculate = bool(speculate)
        self.rung_factor = float(rung_factor)
        # Lazy, chosen by the first opened source: the event-loop
        # prefetcher when it ``supports_async`` (a remote stack), the
        # thread prefetcher for local files.  Identical bytes either way.
        self._prefetcher = None
        self._async = False
        # Stateful per-shard retrievers + traced sources (refine() path).
        self._retrievers: Dict[str, ProgressiveRetriever] = {}
        self._sources: Dict[str, PrefetchSource] = {}
        self.cumulative_bytes = 0

    # ------------------------------------------------------------------ wiring

    def _make_source(self, name: str) -> PrefetchSource:
        inner = self._open_source(name)
        if self.prefetch > 0 and self._prefetcher is None:
            self._prefetcher, self._async = _prefetcher_for(inner, self.prefetch)
        return PrefetchSource(inner, self._prefetcher)

    def _source_for(
        self, name: str, sources: Dict[str, PrefetchSource]
    ) -> PrefetchSource:
        source = sources.get(name)
        if source is None:
            source = self._make_source(name)
            sources[name] = source
        return source

    def _retriever_for(
        self,
        name: str,
        retrievers: Dict[str, ProgressiveRetriever],
        sources: Dict[str, PrefetchSource],
    ) -> ProgressiveRetriever:
        retriever = retrievers.get(name)
        if retriever is None:
            source = self._source_for(name, sources)
            retriever = ProgressiveRetriever(source)
            retrievers[name] = retriever
        return retriever

    def _target(self, error_bound: Optional[float]) -> float:
        return self.stored_bound if error_bound is None else float(error_bound)

    # ---------------------------------------------------------------- planning

    def plan(self, shards: Sequence, error_bound: Optional[float] = None) -> RetrievalPlan:
        """Stage 1 only: the fetch ops a *stateless* request would perform.

        Uses throwaway retrievers over plain sources (header reads only —
        no payload is touched and no stateful retriever is disturbed), so
        inspection tools can print a plan without changing any accounting.
        """
        target = self._target(error_bound)
        plans: List[ShardPlan] = []
        for shard in shards:
            source = PrefetchSource(self._open_source(shard.name), None)
            retriever = ProgressiveRetriever(source)
            ops = retriever.pending_ops(error_bound=target)
            plans.append(
                ShardPlan(
                    shard=shard.name,
                    ops=[replace(op, shard=shard.name) for op in ops],
                    header_bytes=retriever.store.header_bytes,
                    target_keep=retriever.plan_request(error_bound=target).keep,
                )
            )
            source.close()
        return RetrievalPlan(plans)

    # ---------------------------------------------------------------- requests

    def read(
        self,
        shards: Sequence,
        roi_slices: SliceTuple,
        error_bound: Optional[float] = None,
    ) -> EngineResult:
        """Stateless retrieval: fresh retrievers, optionally pool-decoded."""
        target = self._target(error_bound)
        if self.workers > 1 and self.path is not None and len(shards) > 1:
            result = self._pooled_read(shards, roi_slices, target)
            if result is not None:
                return result
        return self._request(shards, roi_slices, target, {}, {}, speculate_next=False)

    def refine(
        self,
        shards: Sequence,
        roi_slices: SliceTuple,
        error_bound: Optional[float] = None,
    ) -> EngineResult:
        """Stateful retrieval (Algorithm 2 per shard) with rung speculation."""
        target = self._target(error_bound)
        return self._request(
            shards, roi_slices, target, self._retrievers, self._sources,
            speculate_next=True,
        )

    # ------------------------------------------------------------------- guts

    def _request(
        self,
        shards: Sequence,
        roi_slices: SliceTuple,
        target: float,
        retrievers: Dict[str, ProgressiveRetriever],
        sources: Dict[str, PrefetchSource],
        *,
        speculate_next: bool,
    ) -> EngineResult:
        trace_start = {name: len(src.trace) for name, src in sources.items()}
        # Header speculation (async-capable sources): prime the head of
        # every new shard *before* any retriever parses a header, so the
        # per-shard header round-trips ride one multiplexed wave instead
        # of serialising — the parses below then hit the prime cache.
        if self.prefetch > 0:
            fresh = [
                self._source_for(shard.name, sources)
                for shard in shards
                if shard.name not in retrievers
            ]
            if self._async:  # known once the first source is open
                with self._prefetcher.burst():
                    for source in fresh:
                        source.prime([(0, min(DEFAULT_HEADER_PRIME, source.size))])
        # Stage 1 for *all* shards, then stage 2 as one burst: the
        # prefetcher sees every shard's ops together (and, over a remote
        # stack, merges them into one wave of round trips), and the
        # background reads for later shards proceed while the first shard
        # decodes.  Each plan is handed on to its retrieve() call below.
        selected = [self._retriever_for(s.name, retrievers, sources) for s in shards]
        plans = [retriever.plan_request(error_bound=target) for retriever in selected]
        if self._prefetcher is not None:
            with self._prefetcher.burst():
                for retriever, plan in zip(selected, plans):
                    retriever._prime(plan)
        pieces: List[Tuple[SliceTuple, np.ndarray]] = []
        achieved = 0.0
        remaining = list(zip(shards, selected, plans))
        while remaining:
            index = 0
            if self.prefetch > 0 and len(remaining) > 1:
                # Streaming handoff: decode a shard whose primed ranges
                # have all landed rather than blocking on plan order — the
                # first shard still fetching overlaps with another shard's
                # decode.  Output and accounting are order-independent.
                index = next(
                    (
                        i
                        for i, (shard, _retriever, _plan) in enumerate(remaining)
                        if sources[shard.name].inflight == 0
                    ),
                    0,
                )
            shard, retriever, plan = remaining.pop(index)
            result = retriever.retrieve(plan=plan)
            achieved = max(achieved, result.error_bound)
            pieces.append((shard.slices, result.data))
        ranges: List[Tuple[str, int, int]] = []
        for shard in shards:
            source = sources[shard.name]
            for offset, length in source.trace[trace_start.get(shard.name, 0):]:
                ranges.append((shard.name, offset, length))
        if speculate_next and self.speculate and self._prefetcher is not None:
            self._speculate(shards, retrievers, sources, target)
        data = assemble(pieces, roi_slices, self.dtype)
        return self._result(data, achieved, shards, ranges)

    def _result(self, data, achieved, shards, ranges) -> EngineResult:
        bytes_loaded = sum(length for _, _, length in ranges)
        self.cumulative_bytes += bytes_loaded
        return EngineResult(
            data=data,
            error_bound=achieved,
            bytes_loaded=bytes_loaded,
            cumulative_bytes=self.cumulative_bytes,
            shards=[s.name for s in shards],
            ranges=ranges,
        )

    def _speculate(
        self,
        shards: Sequence,
        retrievers: Dict[str, ProgressiveRetriever],
        sources: Dict[str, PrefetchSource],
        target: float,
    ) -> None:
        """Prime the next fidelity rung's blocks in the background.

        A wrong guess costs only background I/O: the primed ranges stay
        cached (physically read once), unreported until a later request
        consumes them.
        """
        next_target = max(self.stored_bound, target / self.rung_factor)
        if next_target >= target:
            return
        with self._prefetcher.burst():
            for shard in shards:
                retriever = retrievers[shard.name]
                ops = retriever.pending_ops(error_bound=next_target)
                if ops:
                    sources[shard.name].prime([(op.offset, op.length) for op in ops])

    def _pooled_read(
        self, shards: Sequence, roi_slices: SliceTuple, target: float
    ) -> Optional[EngineResult]:
        """The pool decode stage; ``None`` when there is no shared memory."""
        from repro.retrieval.pooldecode import pooled_container_read

        out_shape = tuple(s.stop - s.start for s in roi_slices)
        tasks = [
            (shard.name, slices_to_ranges(shard.slices, self.shape))
            for shard in shards
        ]
        pooled = pooled_container_read(
            self.path,
            tasks,
            slices_to_ranges(roi_slices, self.shape),
            out_shape,
            self.dtype,
            target,
            self.workers,
        )
        if pooled is None:
            return None
        data, accounting = pooled
        achieved = max((bound for _, _, bound in accounting), default=0.0)
        ranges = [
            (name, offset, length)
            for name, trace, _ in accounting
            for offset, length in trace
        ]
        return self._result(data, achieved, shards, ranges)

    # ------------------------------------------------------------------- state

    def current_keep(self) -> Dict[str, Dict[int, int]]:
        """Resident planes per stateful shard retriever (diagnostics)."""
        return {
            name: retriever.current_keep
            for name, retriever in self._retrievers.items()
        }

    def close(self) -> None:
        self._retrievers.clear()
        for source in self._sources.values():
            source.drop_unconsumed()
        self._sources.clear()
        if self._prefetcher is not None:
            self._prefetcher.close()
            self._prefetcher = None


def _prefetcher_for(inner, depth: int):
    """``(prefetcher, is_async)`` for an opened source: the event-loop
    prefetcher when it can serve coroutine range reads, else threads."""
    if getattr(inner, "supports_async", False):
        from repro.io.aio import AsyncPrefetcher
        from repro.io.remote import find_remote_source

        # On the loop thread the remote stack was opened on: its pool and
        # window primitives are bound to that loop.
        loop = getattr(find_remote_source(inner), "loop_thread", None)
        return AsyncPrefetcher(depth=depth, loop=loop), True
    return Prefetcher(depth=depth), False


def open_stream_source(path, prefetch: Optional[int] = None, *, source=None):
    """A byte-range source over a bare ``.ipc`` stream file or URL.

    ``path`` may be a local file or an ``http(s)://`` URL — the latter is
    read through a resilient remote stack
    (:func:`repro.io.aio.open_remote_source`, or a pre-built ``source``
    with mirrors / fault injection).  With ``prefetch > 0`` the source
    owns a private prefetcher — event-loop for a remote stack, thread-pool
    for a file — and a
    :class:`~repro.core.progressive.ProgressiveRetriever` reading through
    it will overlap its planned range reads with decoding (the retriever
    primes its own pending ops); ``prefetch=0`` reads serially, and
    ``prefetch=None`` takes the library default
    (:func:`~repro.retrieval.prefetch.default_prefetch_depth`: remote →
    prefetch, local → serial).  ``source.close()`` releases the backing
    handle/connection and the prefetcher.
    """
    from repro.io.aio import open_remote_source
    from repro.io.container import FileSource
    from repro.io.remote import is_url

    if source is not None:
        inner = source
    elif is_url(path):
        inner = open_remote_source(str(path))
    else:
        inner = FileSource(path)
    if prefetch is None:
        prefetch = default_prefetch_depth(source is not None or is_url(path))
    if prefetch <= 0:
        return inner
    prefetcher, is_async = _prefetcher_for(inner, prefetch)
    source = PrefetchSource(inner, prefetcher)
    if is_async:
        # Header speculation: the retriever's construction-time header
        # reads ride one multiplexed prime instead of serial round-trips.
        source.prime([(0, min(DEFAULT_HEADER_PRIME, inner.size))])
    original_close = source.close

    def close() -> None:
        original_close()
        prefetcher.close()

    source.close = close  # type: ignore[method-assign]
    return source
