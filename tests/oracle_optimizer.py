"""The oracles of the planner: the knapsack DP of §5 in numpy, twice.

These are the test-side half of the planner's plan-identity contract: the
DP of :mod:`repro.core.optimizer` must return, in both modes, bitwise the
plans of

* :class:`OracleLoader`, the two plain loops — one candidate array and two
  ``np.where`` per keep choice, and a choice table per level read back by
  the backtrack; and
* :class:`FoldOracleLoader`, the numpy fold and backtrack the planner ran
  before its DP moved to C — one shifted add and one elementwise minimum
  per keep choice into a table of DP vectors, and a backtrack that redoes
  the same float sums — over per-level choice tables built one level at a
  time.

Nothing in ``src/`` imports them.

The loop oracle's two methods are the planner's former bodies, kept as
they were.  One known defect is kept with them: when a shift ``err / budget · bins`` reaches
2^63 (a target a hair above the stored bound), the ``int64`` cast wraps it
negative and the loop takes that choice as free.  Tests compare against the
oracle only below that range.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.optimizer import DEFAULT_BINS, LoadingPlan, OptimizedLoader
from repro.core.theory import propagation_factor
from repro.errors import ConfigurationError, RetrievalError


class OracleLoader(OptimizedLoader):
    """:class:`OptimizedLoader` with the loop DPs; plan for plan the same."""

    bins = DEFAULT_BINS

    def plan_for_error_bound(self, target_error: float) -> LoadingPlan:
        """§5.2: minimise loaded bytes subject to the Theorem-1 bound ≤ target.

        A target below the compression bound ``eb`` is unreachable; the full
        plan (whose bound is exactly ``eb``) is returned in that case, which is
        the paper's behaviour of clamping retrieval at the compression bound.
        """
        if target_error <= 0 or not np.isfinite(target_error):
            raise ConfigurationError("target_error must be a positive finite number")
        budget = target_error - self.header.error_bound
        if budget <= 0:
            return self._full_plan()

        bins = self.bins
        infinity = np.float64(np.inf)
        # dp[b] = minimal payload bytes with total error ≤ (b / bins) * budget.
        dp = np.zeros(bins + 1, dtype=np.float64)
        choices: List[np.ndarray] = []

        for enc in self._levels:
            cost, err = self._choice_cache[enc.level]
            err_bins = np.ceil(err / budget * bins).astype(np.int64)
            new_dp = np.full(bins + 1, infinity)
            new_choice = np.zeros(bins + 1, dtype=np.int64)
            for k in range(enc.nbits, -1, -1):
                shift = int(err_bins[k])
                if shift > bins:
                    continue
                candidate = np.full(bins + 1, infinity)
                if shift == 0:
                    candidate = dp + cost[k]
                else:
                    candidate[shift:] = dp[:-shift] + cost[k]
                better = candidate < new_dp
                new_dp = np.where(better, candidate, new_dp)
                new_choice = np.where(better, k, new_choice)
            dp = new_dp
            choices.append(new_choice)

        if not np.isfinite(dp[bins]):
            return self._full_plan()

        # Backtrack: walk levels in reverse, re-deriving the budget consumed.
        keep: Dict[int, int] = {}
        remaining = bins
        for enc, choice in zip(reversed(self._levels), reversed(choices)):
            k = int(choice[remaining])
            keep[enc.level] = k
            _, err = self._choice_cache[enc.level]
            err_bins = int(np.ceil(err[k] / budget * bins))
            remaining -= err_bins
            remaining = max(remaining, 0)
        return self._make_plan(keep)

    def plan_for_size(self, byte_budget: int) -> LoadingPlan:
        """§5.3: minimise the error bound subject to a total byte budget."""
        if not byte_budget > 0 or not np.isfinite(byte_budget):
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

        bins = self.bins
        infinity = np.float64(np.inf)
        # dp[b] = minimal error with payload ≤ (b / bins) * budget.
        dp = np.zeros(bins + 1, dtype=np.float64)
        choices: List[np.ndarray] = []

        for enc in self._levels:
            cost, err = self._choice_cache[enc.level]
            cost_bins = np.ceil(cost / budget * bins).astype(np.int64)
            new_dp = np.full(bins + 1, infinity)
            new_choice = np.zeros(bins + 1, dtype=np.int64)
            for k in range(enc.nbits, -1, -1):
                shift = int(cost_bins[k])
                if shift > bins:
                    continue
                candidate = np.full(bins + 1, infinity)
                if shift == 0:
                    candidate = dp + err[k]
                else:
                    candidate[shift:] = dp[:-shift] + err[k]
                better = candidate < new_dp
                new_dp = np.where(better, candidate, new_dp)
                new_choice = np.where(better, k, new_choice)
            dp = new_dp
            choices.append(new_choice)

        keep: Dict[int, int] = {}
        remaining = bins
        for enc, choice in zip(reversed(self._levels), reversed(choices)):
            k = int(choice[remaining])
            keep[enc.level] = k
            cost, _ = self._choice_cache[enc.level]
            cost_bins = int(np.ceil(cost[k] / budget * bins))
            remaining -= cost_bins
            remaining = max(remaining, 0)
        return self._make_plan(keep)


class FoldOracleLoader(OptimizedLoader):
    """:class:`OptimizedLoader` as it was with its numpy DP; plan for plan
    the same.

    Every table, sum and comparison is the former planner's own: per-level
    ``cumsum`` cost tables and ``p^(l−1) · δ[::-1]`` error tables, shifts
    compared as floats before any cast (so a target a hair above the stored
    bound works, unlike :class:`OracleLoader`), a fold that replaces an
    entry only when the new sum is smaller, a backtrack that takes the
    first ``k`` from the top that reproduces ``dp[r]``, and a predicted
    error summed in level order from ``eb``.
    """

    @cached_property
    def _oracle_choices(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        choices: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for enc in self._levels:
            cost = np.cumsum([0, *self.header.plane_sizes[enc.level]], dtype=np.float64)
            delta = np.asarray(enc.delta_table, dtype=np.float64)
            err = propagation_factor(self.header.method, enc.level) * delta[::-1]
            choices[enc.level] = (cost, err)
        return choices

    def _oracle_plan(self, keep: Dict[int, int]) -> LoadingPlan:
        error = self.header.error_bound
        payload = 0
        for enc in self._levels:
            cost, err = self._oracle_choices[enc.level]
            k = keep.get(enc.level, 0)
            error += float(err[k])
            payload += int(cost[k])
        return LoadingPlan(
            keep=dict(keep),
            predicted_error=error,
            payload_bytes=payload,
            overhead_bytes=self.overhead_bytes,
        )

    def _fold(
        self, budget: float, weight: List[np.ndarray], value: List[np.ndarray]
    ) -> Optional[Dict[int, int]]:
        bins = DEFAULT_BINS
        n = bins + 1
        # A shift past the largest float is inf, as it was in src; only the
        # warning is silenced.
        with np.errstate(over="ignore"):
            shifts = [np.ceil(w / budget * bins).tolist() for w in weight]
        values = [v.tolist() for v in value]
        table = np.full((len(shifts) + 1, n), np.inf)
        table[0] = 0.0
        candidate = np.empty(n)
        for prev, dp, shift, val in zip(table, table[1:], shifts, values):
            for k in range(len(shift) - 1, -1, -1):
                if shift[k] <= bins:
                    s = int(shift[k])
                    out, cand = dp[s:], candidate[s:]
                    np.add(prev[: n - s], val[k], out=cand)
                    np.minimum(out, cand, out=out)
        best = table[-1, bins]
        if not np.isfinite(best):
            return None

        keep: Dict[int, int] = {}
        remaining = bins
        for enc, prev, shift, val in zip(
            reversed(self._levels), table[-2::-1], reversed(shifts), reversed(values)
        ):
            for k in range(len(shift) - 1, -1, -1):
                if shift[k] <= remaining:
                    s = int(shift[k])
                    if prev[remaining - s] + val[k] == best:
                        break
            keep[enc.level] = k
            remaining -= s
            best = prev[remaining]
        return keep

    def plan_for_error_bound(self, target_error: float) -> LoadingPlan:
        if not 0 < target_error < math.inf:
            raise ConfigurationError("target_error must be a positive finite number")
        budget = min(target_error, sys.float_info.max) - self.header.error_bound
        if budget <= 0:
            return self._full_plan()
        choices = self._oracle_choices.values()
        keep = self._fold(budget, [err for _, err in choices], [cost for cost, _ in choices])
        return self._full_plan() if keep is None else self._oracle_plan(keep)

    def plan_for_size(self, byte_budget: int) -> LoadingPlan:
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
        choices = self._oracle_choices.values()
        keep = self._fold(budget, [cost for cost, _ in choices], [err for _, err in choices])
        return self._oracle_plan(keep)
