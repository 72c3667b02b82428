"""The loop oracle of the planner: the knapsack DP of §5 as two plain loops.

This is the test-side half of the planner's plan-identity contract: the one
allocation-free DP of :mod:`repro.core.optimizer` must return, in both
modes, bitwise the plans of these loops — one candidate array and two
``np.where`` per keep choice, and a choice table per level read back by the
backtrack.  Nothing in ``src/`` imports it.

The two methods are the planner's former bodies, kept as they were.  One
known defect is kept with them: when a shift ``err / budget · bins`` reaches
2^63 (a target a hair above the stored bound), the ``int64`` cast wraps it
negative and the loop takes that choice as free.  Tests compare against the
oracle only below that range.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.optimizer import DEFAULT_BINS, LoadingPlan, OptimizedLoader
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
