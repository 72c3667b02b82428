"""Progressive retrieval: one state machine for Algorithms 1 and 2.

A :class:`ProgressiveRetriever` wraps a :class:`repro.core.stream.CompressedStore`
and serves any number of retrieval requests against it.  Each request is
expressed either as an error bound or as a bitrate / byte budget; the
:class:`repro.core.optimizer.OptimizedLoader` turns the request into a
per-level plane selection, and the retriever makes **one transition**:

* **load** — read and bounded-inflate exactly the plane blocks the plan adds
  on top of what is already resident (the anchor block only while it has
  not been decoded), one source read per coalesced fetch op
  (:meth:`pending_ops`), writing the validated, still XOR-predicted packed
  rows into their slots of the shard's one preallocated buffer *as they
  are sliced out* — one copy per run of planes stored at their row size,
  one :meth:`~repro.core.predictive_coder.PredictiveCoder.decode_row` per
  other plane (:data:`~repro.core.stream.Segment`).  No block is ever
  read twice — the property that distinguishes IPComp from residual-based
  progressive schemes;
* **rebuild** — one shard decode call over the resident rows
  (:meth:`~repro.core.predictive_coder.PredictiveCoder.codes_from_rows`)
  and one interpolation reconstruction from the anchor that dequantizes
  the integer codes as it adds them, written into a fresh array or into
  the caller's (``out``, the engine's slab of its answer) and handed over.

The paper's Algorithm 1 is this transition from the empty state; its
Algorithm 2 is the same transition from any other.  The paper forms
Algorithm 2's answer as *previous output + reconstruction of the delta*
(the interpolation is linear); both routes read the same blocks and cost
one interpolation pass, but a sum of two reconstructions is only within
rounding of the single pass.  Rebuilding from the resident rows makes every
answer **bitwise** what a fresh retriever returns at the same plane
selection, and leaves no partial state to forget: a call that fails midway
keeps the rows that arrived, and the next call finishes the job.  The
retriever's state is only what it read — the decoded anchor, the packed
rows and :attr:`~ProgressiveRetriever.current_keep` — never an answer
derived from them: the caller owns every array it receives.

Every request reports exactly how many compressed bytes it had to touch,
which is the quantity Figures 6 and 7 of the paper plot.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from operator import itemgetter
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.interpolation import shared_predictor
from repro.core.optimizer import LoadingPlan, OptimizedLoader
from repro.core.predictive_coder import PredictiveCoder
from repro.core.quantizer import LinearQuantizer
from repro.core.stream import CompressedStore
from repro.errors import ConfigurationError, StreamFormatError
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
    every retrieval, refinement included, touches exactly the byte ranges
    of the blocks it needs and nothing else.

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
            self.predictor = shared_predictor(header.shape, header.method)
            self.quantizer = LinearQuantizer(header.error_bound)
            self.coder = PredictiveCoder.for_header(header, self.quantizer)
            # Where each level's codes lie in the decode's one buffer.
            self._units = self.predictor.unit_offsets(
                dict(
                    zip(
                        (enc.level for enc in header.levels),
                        accumulate((enc.count for enc in header.levels), initial=0),
                    )
                )
            )
        except ConfigurationError as exc:
            raise StreamFormatError(f"stream header invalid: {exc}") from None
        # One buffer for the shard's packed rows; level i owns its bytes
        # starts[i] … starts[i+1].  Its pages are touched only as rows arrive.
        row_bytes = [(enc.count + 7) // 8 for enc in header.levels]
        starts = list(
            accumulate((enc.nbits * n for enc, n in zip(header.levels, row_bytes)), initial=0)
        )
        numbers = [enc.level for enc in header.levels]
        self._rows = dict(zip(numbers, zip(starts, row_bytes)))
        # The decode's level table: (offset, keep, count, nbits) per level in
        # header order — the order of ``_current_keep``'s keys, from which
        # its keeps are refreshed before each decode.
        self._table = array(
            "q",
            chain.from_iterable(
                (start, 0, enc.count, enc.nbits) for enc, start in zip(header.levels, starts)
            ),
        )
        try:
            self._buffer = np.empty(starts[-1], dtype=np.uint8)
        except (MemoryError, ValueError) as exc:
            raise StreamFormatError(f"stream header invalid: plane rows: {exc}") from None
        self.loader = OptimizedLoader(header, overhead_bytes=self.store.overhead_bytes)
        # Retrieval state: the decoded anchor and the packed (still
        # XOR-predicted) plane rows loaded so far — level ``l``'s first
        # ``keep`` rows of ``n`` bytes from ``start``, ``_rows[l] == (start,
        # n)`` — written through one memoryview of the buffer (a memoryview
        # slice assignment costs a fraction of a NumPy one, and there is one
        # per segment).
        self._anchor_values: Optional[np.ndarray] = None
        self._current_keep: Dict[int, int] = dict.fromkeys(numbers, 0)
        self._levels = dict(zip(numbers, header.levels))
        self._view = memoryview(self._buffer)
        # The header is charged to the first call that completes.
        self._header_charged = False

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

    def _keep_for(self, plan: LoadingPlan) -> Dict[int, int]:
        """Never drop precision that is already in memory."""
        return {
            level: max(plan.keep.get(level, 0), resident)
            for level, resident in self._current_keep.items()
        }

    def pending_ops(
        self,
        error_bound: Optional[float] = None,
        bitrate: Optional[float] = None,
        byte_budget: Optional[int] = None,
        *,
        plan: Optional[LoadingPlan] = None,
    ) -> List[FetchOp]:
        """The coalesced fetch ops a request would read, given current state.

        The exact reads :meth:`retrieve` is about to issue, one per op: only
        the planes above what is resident (fidelity never decreases), and
        the anchor while it has not been decoded — also after a call that
        failed midway.  Over a remote source the engine or the serving layer
        primes these first (:meth:`_prime`); the CLI's ``info`` prints them.
        """
        if plan is None:
            plan = self._plan(error_bound, bitrate, byte_budget)
        return self._ops(self._keep_for(plan))

    def _ops(self, target_keep: Dict[int, int]) -> List[FetchOp]:
        return plan_stream_ops(
            self.store,
            self._current_keep,
            target_keep,
            include_anchor=self._anchor_values is None,
        )

    def _prime(self, plan: LoadingPlan) -> None:
        """Hand the planned ops to the source's prime cache, if it has one —
        once per plan, before :meth:`retrieve` reads them."""
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
        out: Optional[np.ndarray] = None,
    ) -> RetrievalResult:
        """Serve one retrieval request, reusing previously loaded data.

        The one transition of the state machine (module docstring): load
        what the plan adds, then rebuild the output from the resident rows.
        Calls only ever *add* precision: if the new request is coarser than
        what is already resident, nothing is loaded and the answer is
        rebuilt at the finer resident selection.  The returned array is
        bitwise what a fresh retriever produces at :attr:`current_keep`, and
        the retriever keeps no reference to it.  A caller that already
        holds this request's :meth:`plan_request` result (the engine and
        the serving layer plan every shard before they fetch any) passes it
        as ``plan`` instead of the target.  With ``out`` — a C-contiguous
        float64 array of the stream's shape, such as the engine's slab view
        of its answer — the field is reconstructed there, and ``data`` is
        ``out`` (float64 whatever the stream's dtype).
        """
        if plan is None:
            plan = self._plan(error_bound, bitrate, byte_budget)
        return self.rebuild(plan, self.load(plan), out=out)

    def load(self, plan: LoadingPlan) -> int:
        """The first half of :meth:`retrieve`: read, inflate and keep every
        block ``plan`` adds to what is resident (Python between short C
        calls).  Returns the bytes the request is charged — what it read,
        plus the header until a call completes — for :meth:`rebuild`.  A
        load that raised midway keeps what arrived; the next finishes it."""
        self.store.reset_accounting()
        self._load(self._keep_for(plan))
        bytes_loaded = self.store.bytes_read
        if not self._header_charged:
            bytes_loaded += self.store.header_bytes
        return bytes_loaded

    def rebuild(
        self, plan: LoadingPlan, bytes_loaded: int, *, out: Optional[np.ndarray] = None
    ) -> RetrievalResult:
        """The second half of :meth:`retrieve`: the answer at the resident
        selection, from the rows alone (two C calls that release the GIL),
        reported as the request ``plan`` that :meth:`load` charged
        ``bytes_loaded``.  The engine's read window runs the halves of two
        shards on two threads; ``retrieve`` is the two in turn."""
        levels = self.header.levels
        # One decode call for the whole shard: one C call walks every level
        # of the one row buffer instead of paying a fixed cost per level.
        self._table[1::4] = array("q", self._current_keep.values())
        codes = self.coder.codes_from_rows(self._buffer, self._table)
        # The dequantize rides the interpolation add: each sweep multiplies
        # its slice of the codes by the bin width.
        output = self.predictor.reconstruct(
            self._anchor_values, codes, self._units, self.quantizer.bin_width, out=out
        )
        self._header_charged = True
        achieved = self._current_keep
        return RetrievalResult(
            # A no-op for a float64 field; a real dtype change copies.
            data=output if out is not None else output.astype(self.header.dtype, copy=False),
            plan=plan,
            bytes_loaded=bytes_loaded,
            cumulative_bytes=self.cumulative_bytes,
            # When the load landed exactly on the plan's selection, report
            # the plan's own bound so the result is indistinguishable from a
            # fresh retrieval at this target; a finer resident state keeps
            # the Theorem-1 bound of what is actually resident.
            error_bound=(
                plan.predicted_error
                if all(achieved[enc.level] == plan.keep.get(enc.level, 0) for enc in levels)
                else self.loader.plan_error(achieved)
            ),
        )

    def _load(self, target_keep: Dict[int, int]) -> None:
        """Read, inflate and keep every block between the resident state and
        ``target_keep``: one store read per :meth:`pending_ops` op, its
        segments (:data:`~repro.core.stream.Segment`) taken in stream
        order.  A stored run lands in its level's slot with one copy; any
        other plane is decoded on its own.

        State advances segment by segment, so a read or a hostile block
        that raises midway leaves a consistent retriever: what arrived stays
        (and is never read again), what did not is still pending.
        """
        for enc in self.header.levels:
            if target_keep[enc.level] > enc.nbits:
                raise StreamFormatError("more planes planned than the level width")
        rows, view, keep = self._rows, self._view, self._current_keep
        decode_row = self.coder.decode_row
        for op in self._ops(target_keep):
            for (level, first, stop, stored), block in self.store.read_op(op):
                if level is None:
                    self._anchor_values = self.coder.decode_anchor(
                        block, self.header.anchor_count
                    )
                    continue
                start, row_bytes = rows[level]
                if not stored:
                    block = decode_row(self._levels[level], first, block)
                view[start + first * row_bytes : start + stop * row_bytes] = block
                keep[level] = stop
        # Only an empty block outside every op (no writer emits one) can be
        # planned but never read.
        if self._anchor_values is None:
            raise StreamFormatError("the anchor is an empty block")
        for level, keep in self._current_keep.items():
            if keep < target_keep[level]:
                raise StreamFormatError(f"level {level} plane {keep} is an empty block")

    # ------------------------------------------------------------------- state

    @property
    def cumulative_bytes(self) -> int:
        """Bytes consumed since the retriever was created, header included:
        the sum of the store's trace, so it counts a failed call's reads too."""
        return sum(map(itemgetter(1), self.store.trace))

    @property
    def current_keep(self) -> Dict[int, int]:
        """Planes currently resident per level (diagnostics / tests)."""
        return dict(self._current_keep)

    @property
    def resident_nbytes(self) -> int:
        """Bytes this retriever keeps resident (cache accounting).

        The whole packed-row buffer (allocated once, for every plane of the
        stream) and the anchor values — what a byte-budgeted cache should
        charge for keeping this retriever warm.  No answer is resident: each
        one belongs to the caller it was handed to.
        """
        total = self._buffer.nbytes
        if self._anchor_values is not None:
            total += self._anchor_values.nbytes
        return total
