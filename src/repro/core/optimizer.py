"""Optimized data loading (§5): pick the cheapest set of bitplanes to load.

Both retrieval modes of the paper are implemented:

* **Error-bound mode (§5.2)** — given a retrieval bound ``E ≥ eb``, load the
  fewest bytes such that Theorem 1 still guarantees
  ``Σ_l p^(l−1)·δy_l(b_l) + eb ≤ E``.
* **Fixed-rate / size mode (§5.3)** — given a byte (or bitrate) budget, load
  the set of planes that minimises the Theorem-1 error bound while fitting in
  the budget.

Both are knapsack problems over the per-level choice "keep the ``k`` most
significant planes"; they are solved with the discretized dynamic program the
paper describes.  Error (resp. size) contributions are rounded *up* to the
next bin so discretization can never produce a plan that violates the
constraint; the price is a marginally conservative plan, which matches the
paper's "negligible overhead, strictly bounded" framing.

The DP runs in C, one call per plan (``ipc_plan`` in ``_sweep.c``, the
library :mod:`repro.core.interpolation` builds and loads): the fold, the
backtrack and the plan's payload and Theorem-1 sums, for both modes with the
two tables' roles swapped, over a table allocated per call (plans run from
many threads at once).  It reads one flat table per shard — the cost and
error of every keep choice of every level, concatenated in level order, plus
the per-level lengths — which the first DP builds in a few numpy calls; a
loader that only ever answers the stored bound (the full plan) never builds
it.  Its plans are bitwise those of the numpy fold and of the plain loops
kept in ``tests/oracle_optimizer.py``.  Every target must be a positive
finite number; anything else is a :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.interpolation import _sweep
from repro.core.stream import StreamHeader
from repro.core.theory import propagation_factor
from repro.errors import ConfigurationError, RetrievalError

#: Number of discretization bins of the knapsack DP.
DEFAULT_BINS = 1024


@dataclass(frozen=True)
class LoadingPlan:
    """Result of the optimizer: how many MSB planes to load per level.

    ``predicted_error`` is the Theorem-1 bound of the plan (``≥`` the actual
    error); ``payload_bytes`` counts only plane blocks, while ``total_bytes``
    adds the mandatory header + anchor overhead.
    """

    keep: Dict[int, int]
    predicted_error: float
    payload_bytes: int
    overhead_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.overhead_bytes

    def bitrate(self, n_elements: int) -> float:
        """Average bits loaded per scalar value."""
        if n_elements <= 0:
            raise ConfigurationError("n_elements must be positive")
        return 8.0 * self.total_bytes / n_elements


class _ChoiceTable(NamedTuple):
    """A shard's keep choices, flat, in level order: ``cost[i]`` / ``err[i]``
    are the payload bytes and the propagated Theorem-1 loss of level ``l``'s
    choice ``k`` at ``i = starts[l] + k``, ``lengths[l] = nbits + 1``."""

    cost: np.ndarray
    err: np.ndarray
    lengths: np.ndarray
    starts: Dict[int, int]
    #: The three arrays' addresses, taken once (the tuple keeps them alive).
    addresses: Tuple[int, int, int]


class OptimizedLoader:
    """Plan minimal-volume retrievals from a stream header alone."""

    def __init__(self, header: StreamHeader, overhead_bytes: int = 0):
        self.header = header
        self.overhead_bytes = int(overhead_bytes)
        self._levels = sorted(header.levels, key=attrgetter("level"))

    @cached_property
    def _table(self) -> _ChoiceTable:
        # Built by the first DP (or error/payload query): a read at the
        # stored bound takes :meth:`_full_plan` and never needs it.
        levels = self._levels
        lengths = [enc.nbits + 1 for enc in levels]
        firsts = list(accumulate(lengths, initial=0))[:-1]
        # cost[k] = bytes loaded when keeping the k most significant planes:
        # one running sum over every level's [0, *plane sizes], less its
        # value at the level's first choice (exact: every sum is an integer).
        sizes: List[int] = []
        for enc in levels:
            sizes.append(0)
            sizes.extend(self.header.plane_sizes[enc.level])
        running = np.cumsum(np.array(sizes, dtype=np.float64))
        cost = running - np.repeat(running[firsts], lengths)
        # err[k] = propagated Theorem-1 error when keeping k planes, the
        # level's δ table reversed: the tables in reverse level order,
        # concatenated and reversed as one.  Stream groups are per
        # interpolation sweep, so the information loss of group ``l``
        # passes through exactly ``l − 1`` later prediction sweeps and the
        # paper's p^(l−1) factor is exact.
        factors = [propagation_factor(self.header.method, enc.level) for enc in levels]
        delta = np.concatenate(
            [enc.delta_table for enc in reversed(levels)] or [[]], dtype=np.float64
        )[::-1]
        err = np.repeat(factors, lengths) * delta
        counts = np.array(lengths, dtype=np.int64)
        return _ChoiceTable(
            cost,
            err,
            counts,
            {enc.level: first for enc, first in zip(levels, firsts)},
            (cost.ctypes.data, err.ctypes.data, counts.ctypes.data),
        )

    @cached_property
    def _choice_cache(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Per level, in level order, views of its cost and error choices."""
        table = self._table
        return {
            level: (table.cost[first : first + n], table.err[first : first + n])
            for (level, first), n in zip(table.starts.items(), table.lengths.tolist())
        }

    # ----------------------------------------------------------------- helpers

    def _full_plan(self) -> LoadingPlan:
        return LoadingPlan(
            keep={enc.level: enc.nbits for enc in self._levels},
            predicted_error=self.header.error_bound,
            payload_bytes=self.header.plane_bytes,
            overhead_bytes=self.overhead_bytes,
        )

    def plan_error(self, keep: Dict[int, int]) -> float:
        """Theorem-1 error bound of an arbitrary keep-assignment."""
        total = self.header.error_bound
        for level, (_, err) in self._choice_cache.items():
            total += float(err[keep.get(level, 0)])
        return total

    def plan_payload(self, keep: Dict[int, int]) -> int:
        """Plane bytes loaded by an arbitrary keep-assignment."""
        payload = 0
        for level, (cost, _) in self._choice_cache.items():
            payload += int(cost[keep.get(level, 0)])
        return payload

    def _make_plan(self, keep: Dict[int, int]) -> LoadingPlan:
        return LoadingPlan(
            keep=dict(keep),
            predicted_error=self.plan_error(keep),
            payload_bytes=self.plan_payload(keep),
            overhead_bytes=self.overhead_bytes,
        )

    # -------------------------------------------------------------- the DP

    def _knapsack(self, budget: float, by_size: bool) -> Optional[LoadingPlan]:
        """The plan that minimises Σ error subject to Σ cost ≤ ``budget``
        (``by_size``) or Σ cost subject to Σ error ≤ ``budget``; ``None``
        when no plan has a finite value.  One C call (module docstring)."""
        table = self._table
        keep = (ctypes.c_int64 * len(table.starts))()
        error = ctypes.c_double()
        payload = _sweep().ipc_plan(
            *table.addresses,
            len(keep),
            by_size,
            float(budget),
            DEFAULT_BINS,
            self.header.error_bound,
            keep,
            ctypes.byref(error),
        )
        if payload == -2:
            raise MemoryError("no memory for the planner's DP table")
        if payload < 0:
            return None
        return LoadingPlan(
            keep=dict(zip(table.starts, keep)),
            predicted_error=error.value,
            payload_bytes=payload,
            overhead_bytes=self.overhead_bytes,
        )

    # ------------------------------------------------------------- error mode

    def plan_for_error_bound(self, target_error: float) -> LoadingPlan:
        """§5.2: minimise loaded bytes subject to the Theorem-1 bound ≤ target.

        A target below the compression bound ``eb`` is unreachable; the full
        plan (whose bound is exactly ``eb``) is returned in that case, which is
        the paper's behaviour of clamping retrieval at the compression bound.
        """
        if not 0 < target_error < math.inf:
            raise ConfigurationError("target_error must be a positive finite number")
        # Capped at the largest float, an integer target of any size stays
        # a float budget; every float target is unchanged.
        budget = min(target_error, sys.float_info.max) - self.header.error_bound
        if budget <= 0:
            return self._full_plan()
        return self._knapsack(budget, by_size=False) or self._full_plan()

    # ----------------------------------------------------------- bitrate mode

    def plan_for_size(self, byte_budget: int) -> LoadingPlan:
        """§5.3: minimise the error bound subject to a total byte budget."""
        if not 0 < byte_budget < math.inf:
            raise ConfigurationError("byte_budget must be a positive finite number")
        budget = byte_budget - self.overhead_bytes
        if budget <= 0:
            raise RetrievalError(
                f"budget of {byte_budget} B cannot cover the mandatory "
                f"{self.overhead_bytes} B of header + anchor data"
            )
        full = self._full_plan()
        if full.payload_bytes <= budget:
            return full
        # Keeping no plane costs nothing, so some plan always fits; only a
        # loss table that overflows to inf leaves none of finite error.
        plan = self._knapsack(budget, by_size=True)
        if plan is None:
            raise RetrievalError(f"no plan within {byte_budget} B has a finite error bound")
        return plan

    def plan_for_bitrate(self, bitrate: float) -> LoadingPlan:
        """Convenience wrapper: budget expressed in bits per scalar value."""
        if not 0 < bitrate < math.inf:
            raise ConfigurationError("bitrate must be a positive finite number")
        # At 8 · (full plan's bytes) bits per value the budget covers the
        # full plan already; capping there keeps a huge bitrate's byte count
        # finite and changes no plan.
        rate = min(bitrate, 8.0 * self._full_plan().total_bytes)
        byte_budget = math.floor(rate * self.header.n_elements / 8.0)
        return self.plan_for_size(max(byte_budget, 1))
