"""Progressive retrieval: Algorithm 1 (from scratch) and Algorithm 2 (refine).

A :class:`ProgressiveRetriever` wraps a :class:`repro.core.stream.CompressedStore`
and serves any number of retrieval requests against it.  Each request is
expressed either as an error bound or as a bitrate / byte budget; the
:class:`repro.core.optimizer.OptimizedLoader` turns the request into a
per-level plane selection, and the retriever then:

* **first request (Algorithm 1)** — loads the anchor block plus the selected
  plane blocks, decodes every level once, and runs one interpolation
  reconstruction pass;
* **subsequent requests (Algorithm 2)** — loads only the plane blocks that the
  new plan adds on top of what is already in memory, decodes the *integer
  delta* those planes contribute, pushes the delta through the (linear)
  interpolation reconstruction, and adds it to the previous output.  No block
  is ever read twice and no full decompression pass is repeated — the property
  that distinguishes IPComp from residual-based progressive schemes.

Every request reports exactly how many compressed bytes it had to touch,
which is the quantity Figures 6 and 7 of the paper plot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.interpolation import InterpolationPredictor
from repro.core.negabinary import from_negabinary, to_negabinary
from repro.core.optimizer import LoadingPlan, OptimizedLoader
from repro.core.predictive_coder import PredictiveCoder
from repro.core.quantizer import LinearQuantizer
from repro.core.stream import CompressedStore
from repro.errors import ConfigurationError, RetrievalError, StreamFormatError
from repro.retrieval.plan import FetchOp, plan_stream_ops


@dataclass
class RetrievalResult:
    """One progressive retrieval: reconstructed data plus its cost/quality."""

    data: np.ndarray
    plan: LoadingPlan
    bytes_loaded: int
    cumulative_bytes: int
    error_bound: float

    def bitrate(self, n_elements: Optional[int] = None) -> float:
        """Bits per value touched by *this* request."""
        n = n_elements if n_elements is not None else self.data.size
        return 8.0 * self.bytes_loaded / n

    def cumulative_bitrate(self, n_elements: Optional[int] = None) -> float:
        """Bits per value touched since the retriever was created."""
        n = n_elements if n_elements is not None else self.data.size
        return 8.0 * self.cumulative_bytes / n


class ProgressiveRetriever:
    """Stateful multi-fidelity reader of one IPComp stream.

    ``blob`` is either the in-memory stream bytes or a *byte-range source*
    (``size`` + ``read_range(offset, length)``, see
    :class:`repro.core.stream.BytesSource`).  With a file-backed source —
    e.g. one shard block of a :class:`repro.io.ChunkedDataset` container —
    every retrieval, including Algorithm-2 refinement, touches exactly the
    byte ranges of the blocks it needs and nothing else.

    There is no decode-time configuration: everything that shaped the bytes
    (prefix bits, per-plane lossless coders) comes from the stream's own
    header — streams are self-describing.
    """

    def __init__(self, blob) -> None:
        # ``blob`` may also be a ready CompressedStore (possibly built from a
        # pre-parsed header) — the serving layer pins parsed headers across
        # requests and hands the store in directly.
        self.store = blob if isinstance(blob, CompressedStore) else CompressedStore(blob)
        header = self.store.header
        self.header = header
        try:
            # These constructors validate their inputs, but here every input
            # comes from the stream's own header — an out-of-range value is
            # stream corruption, not a caller configuration mistake.
            self.predictor = InterpolationPredictor(header.shape, header.method)
            self.quantizer = LinearQuantizer(header.error_bound)
            self.coder = PredictiveCoder.for_header(header, self.quantizer)
        except ConfigurationError as exc:
            raise StreamFormatError(f"stream header invalid: {exc}") from None
        self.loader = OptimizedLoader(header, overhead_bytes=self.store.overhead_bytes)
        # Retrieval state (Algorithm 2 needs all three).
        self._current_keep: Dict[int, int] = {enc.level: 0 for enc in header.levels}
        self._current_codes: Dict[int, np.ndarray] = {}
        self._current_output: Optional[np.ndarray] = None
        self._anchor_values: Optional[np.ndarray] = None
        # True while the resident output is bit-for-bit what a from-scratch
        # retrieval at the current keep would reconstruct (Algorithm-1 and
        # rebuilt-refine paths keep it; a delta-add refine clears it).
        self._output_exact = True
        self.cumulative_bytes = 0

    # ----------------------------------------------------------------- planning

    def _plan(
        self,
        error_bound: Optional[float],
        bitrate: Optional[float],
        byte_budget: Optional[int],
    ) -> LoadingPlan:
        requested = [v is not None for v in (error_bound, bitrate, byte_budget)]
        if sum(requested) != 1:
            raise ConfigurationError(
                "specify exactly one of error_bound, bitrate, byte_budget"
            )
        if error_bound is not None:
            return self.loader.plan_for_error_bound(error_bound)
        if bitrate is not None:
            return self.loader.plan_for_bitrate(bitrate)
        assert byte_budget is not None
        return self.loader.plan_for_size(byte_budget)

    def plan_request(
        self,
        error_bound: Optional[float] = None,
        bitrate: Optional[float] = None,
        byte_budget: Optional[int] = None,
    ) -> LoadingPlan:
        """Stage-1 planning only: the loading plan a request would use."""
        return self._plan(error_bound, bitrate, byte_budget)

    def pending_ops(
        self,
        error_bound: Optional[float] = None,
        bitrate: Optional[float] = None,
        byte_budget: Optional[int] = None,
        *,
        plan: Optional[LoadingPlan] = None,
    ) -> List[FetchOp]:
        """The coalesced fetch ops a request would read, given current state.

        The exact byte ranges :meth:`retrieve` is about to touch — the
        anchor plus planned planes from scratch, only the *new* planes on
        refinement (fidelity never decreases, mirroring Algorithm 2's keep
        merge).  The retrieval engine primes these through the prefetcher;
        the CLI's ``info`` prints them.
        """
        if plan is None:
            plan = self._plan(error_bound, bitrate, byte_budget)
        fresh = self._current_output is None
        if fresh:
            target = {enc.level: plan.keep.get(enc.level, 0) for enc in self.header.levels}
            current: Optional[Dict[int, int]] = None
        else:
            target = {
                level: max(plan.keep.get(level, 0), self._current_keep.get(level, 0))
                for level in self._current_keep
            }
            current = self._current_keep
        return plan_stream_ops(self.store, current, target, include_anchor=fresh)

    def _prime(self, plan: LoadingPlan) -> None:
        """Hand the planned ranges to the source's prefetcher, if it has one."""
        prime = getattr(self.store.source, "prime", None)
        if prime is not None:
            prime([(op.offset, op.length) for op in self.pending_ops(plan=plan)])

    # ---------------------------------------------------------------- retrieval

    def retrieve(
        self,
        error_bound: Optional[float] = None,
        bitrate: Optional[float] = None,
        byte_budget: Optional[int] = None,
        *,
        plan: Optional[LoadingPlan] = None,
    ) -> RetrievalResult:
        """Serve one retrieval request, reusing previously loaded data.

        The first call runs Algorithm 1; later calls run Algorithm 2 and only
        ever *add* precision: if the new request is coarser than what is
        already reconstructed, the existing (finer) output is returned and no
        data is loaded at all.  A caller that already holds this request's
        :meth:`plan_request` result (the engine plans every shard before it
        fetches any) passes it as ``plan`` instead of the target.
        """
        if plan is None:
            plan = self._plan(error_bound, bitrate, byte_budget)
        # Stage 2: overlap the planned range reads with decoding whenever
        # the source supports priming (a no-op on plain in-memory blobs).
        self._prime(plan)
        if self._current_output is None:
            return self._retrieve_from_scratch(plan)
        return self._refine(plan)

    def retrieve_rebuilt(
        self,
        error_bound: Optional[float] = None,
        bitrate: Optional[float] = None,
        byte_budget: Optional[int] = None,
    ) -> RetrievalResult:
        """Refine with Algorithm-2 I/O but from-scratch reconstruction bits.

        Reads exactly the plane blocks :meth:`retrieve` would read (only the
        delta above the resident keep — never a byte twice), merges them into
        the resident integer codes (exact bit-plane arithmetic), then runs
        **one full reconstruction pass** over the merged codes instead of
        adding a delta reconstruction to the previous output.  Summing two
        reconstructions is within rounding of the single pass but not
        bit-identical to it; the single pass *is* — so the returned array is
        bitwise what a fresh retrieval at the achieved plane selection
        produces.  This is the property the serving layer's rung cache needs
        to answer stateless requests from refined state.  Costs a full
        reconstruction of compute per call; saves the same bytes as
        :meth:`retrieve`.
        """
        plan = self._plan(error_bound, bitrate, byte_budget)
        self._prime(plan)
        if self._current_output is None:
            return self._retrieve_from_scratch(plan)
        assert self._anchor_values is not None
        self.store.reset_accounting()
        target_keep = self._merged_target(plan)
        any_new = bool(self._load_new_planes(target_keep))
        if any_new or not self._output_exact:
            level_diffs = {
                enc.level: self.quantizer.dequantize(
                    self._current_codes.get(
                        enc.level, np.zeros(enc.count, dtype=np.int64)
                    )
                )
                for enc in self.header.levels
            }
            self._current_output = self.predictor.reconstruct(
                self._anchor_values, level_diffs, granularity="sweep"
            )
            self._output_exact = True
        bytes_loaded = self.store.bytes_read
        self.cumulative_bytes += bytes_loaded
        achieved_keep = dict(self._current_keep)
        return RetrievalResult(
            data=self._cast(self._current_output),
            plan=plan,
            bytes_loaded=bytes_loaded,
            cumulative_bytes=self.cumulative_bytes,
            # When the merge landed exactly on the plan's selection, report
            # the plan's own bound so the result is indistinguishable from a
            # fresh retrieval at this target; a finer resident rung keeps the
            # Theorem-1 bound of what is actually resident.
            error_bound=(
                plan.predicted_error
                if all(
                    achieved_keep.get(enc.level, 0) == plan.keep.get(enc.level, 0)
                    for enc in self.header.levels
                )
                else self.loader.plan_error(achieved_keep)
            ),
        )

    def _retrieve_from_scratch(self, plan: LoadingPlan) -> RetrievalResult:
        """Algorithm 1: single decoding + reconstruction pass."""
        self.store.reset_accounting()
        anchor_block = self.store.read_anchor()
        self._anchor_values = self.coder.decode_anchor(
            anchor_block, self.header.anchor_count
        )
        levels = self.header.levels
        keep = {enc.level: plan.keep.get(enc.level, 0) for enc in levels}
        # One decode call for the whole shard: the kernel sweeps every level
        # together instead of paying its fixed dispatch cost per level.
        codes = self.coder.decode_levels_codes(
            (enc, self.store.read_planes(enc.level, keep[enc.level])) for enc in levels
        )
        self._current_keep = keep
        self._current_codes = {enc.level: c for enc, c in zip(levels, codes)}
        level_diffs = {
            level: self.quantizer.dequantize(c)
            for level, c in self._current_codes.items()
        }
        output = self.predictor.reconstruct(
            self._anchor_values, level_diffs, granularity="sweep"
        )
        self._current_output = output
        bytes_loaded = self.store.bytes_read + self.store.header_bytes
        self.cumulative_bytes += bytes_loaded
        return RetrievalResult(
            data=self._cast(output),
            plan=plan,
            bytes_loaded=bytes_loaded,
            cumulative_bytes=self.cumulative_bytes,
            error_bound=plan.predicted_error,
        )

    def _load_new_planes(self, target_keep: Dict[int, int]) -> Dict[int, np.ndarray]:
        """Read + merge every plane above the current keep, per level.

        Advances ``_current_codes`` / ``_current_keep`` to ``target_keep``
        and returns the *previous* integer codes of each level that gained
        planes (what Algorithm 2 needs to form its delta).  All merging is
        integer bit-plane arithmetic — the updated codes are bit-for-bit the
        codes a from-scratch decode at ``target_keep`` would produce.
        """
        old_codes_by_level: Dict[int, np.ndarray] = {}
        for enc in self.header.levels:
            old_keep = self._current_keep[enc.level]
            new_keep = target_keep[enc.level]
            if new_keep <= old_keep:
                continue
            blocks = [
                self.store.read_block(enc.level, plane) for plane in range(new_keep)
                if plane >= old_keep
            ]
            # Decoding plane k needs planes < k for the XOR prediction; those
            # are already decoded in ``_current_codes`` so we re-derive the new
            # integer codes from old codes + freshly loaded planes.
            new_codes = self._merge_codes(enc, old_keep, new_keep, blocks)
            old_codes_by_level[enc.level] = self._current_codes.get(
                enc.level, np.zeros(enc.count, dtype=np.int64)
            )
            self._current_codes[enc.level] = new_codes
            self._current_keep[enc.level] = new_keep
        return old_codes_by_level

    def _merged_target(self, plan: LoadingPlan) -> Dict[int, int]:
        """Never drop precision that is already in memory."""
        return {
            level: max(plan.keep.get(level, 0), self._current_keep.get(level, 0))
            for level in self._current_keep
        }

    def _refine(self, plan: LoadingPlan) -> RetrievalResult:
        """Algorithm 2: load only the new planes and add their contribution."""
        assert self._current_output is not None and self._anchor_values is not None
        self.store.reset_accounting()
        target_keep = self._merged_target(plan)
        old_codes_by_level = self._load_new_planes(target_keep)
        delta_diffs: Dict[int, np.ndarray] = {
            level: self.quantizer.dequantize(self._current_codes[level] - old_codes)
            for level, old_codes in old_codes_by_level.items()
        }
        any_new = bool(old_codes_by_level)
        if any_new:
            zero_anchor = np.zeros(self.header.anchor_count, dtype=np.float64)
            delta_output = self.predictor.reconstruct(
                zero_anchor, delta_diffs, granularity="sweep"
            )
            self._current_output = self._current_output + delta_output
            # Adding reconstructed deltas is within rounding of — but not
            # bit-identical to — a from-scratch pass at the merged keep.
            self._output_exact = False
        bytes_loaded = self.store.bytes_read
        self.cumulative_bytes += bytes_loaded
        achieved_keep = dict(self._current_keep)
        return RetrievalResult(
            data=self._cast(self._current_output),
            plan=plan,
            bytes_loaded=bytes_loaded,
            cumulative_bytes=self.cumulative_bytes,
            error_bound=self.loader.plan_error(achieved_keep),
        )

    # ------------------------------------------------------------------ helpers

    def _merge_codes(self, enc, old_keep: int, new_keep: int, new_blocks) -> np.ndarray:
        """Integer codes of a level once planes ``old_keep … new_keep-1`` arrive.

        The merge runs on the resident negabinary word and in the packed
        byte domain.  XOR-predictive decoding of plane ``k`` needs the true
        planes ``k−1 … k−prefix_bits``, so only those are re-derived from
        the word (as packed rows); every newly loaded packed row is
        un-predicted against them and its bits are OR-ed into the word.  The
        cost follows the number of planes *added*, not the level width.
        """
        count = enc.count
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        old_codes = self._current_codes.get(enc.level)
        if old_codes is None or old_codes.size == 0:
            old_codes = np.zeros(count, dtype=np.int64)
        word = to_negabinary(old_codes)  # a fresh array: OR-ed in place
        prefix_bits = self.coder.prefix_bits

        def shift(k: int) -> np.uint64:
            return np.uint64(enc.nbits - 1 - k)

        def resident_plane(k: int) -> np.ndarray:
            bits = ((word >> shift(k)) & np.uint64(1)).astype(np.uint8)
            return np.packbits(bits, bitorder="little")

        recent = deque(
            map(resident_plane, range(max(0, old_keep - prefix_bits), old_keep)),
            maxlen=prefix_bits,
        )
        for k, block in zip(range(old_keep, new_keep), new_blocks):
            plane = self.coder.decode_plane_packed(enc, k, block)
            for earlier in recent:
                plane ^= earlier
            recent.append(plane)
            lifted = np.unpackbits(plane, count=count, bitorder="little").astype(np.uint64)
            lifted <<= shift(k)
            word |= lifted
        return from_negabinary(word)

    def _cast(self, output: np.ndarray) -> np.ndarray:
        return output.astype(self.header.dtype, copy=True).reshape(self.header.shape)

    # ------------------------------------------------------------------- state

    @property
    def current_keep(self) -> Dict[int, int]:
        """Planes currently resident per level (diagnostics / tests)."""
        return dict(self._current_keep)

    @property
    def current_output(self) -> Optional[np.ndarray]:
        """The most recent reconstruction, or ``None`` before the first request."""
        if self._current_output is None:
            return None
        return self._cast(self._current_output)

    @property
    def resident_nbytes(self) -> int:
        """Decoded bytes this retriever keeps resident (cache accounting).

        The reconstruction, the per-level integer codes, and the anchor
        values — what a byte-budgeted cache should charge for keeping this
        retriever's rung warm.
        """
        total = 0
        if self._current_output is not None:
            total += self._current_output.nbytes
        if self._anchor_values is not None:
            total += self._anchor_values.nbytes
        total += sum(codes.nbytes for codes in self._current_codes.values())
        return total
