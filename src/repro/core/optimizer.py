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

The DP state is a vector over budget bins and each level's transition is a
vectorised minimum over shifted copies, so the whole optimization costs a few
hundred microseconds even for 60+ planes per level.  The per-level choice
tables it runs over are built by the first DP: a loader that only ever
answers the stored bound (the full plan) never builds them.  Every target
must be a positive finite number; anything else is a
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.stream import StreamHeader, header_plane_sizes
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


class OptimizedLoader:
    """Plan minimal-volume retrievals from a stream header alone."""

    def __init__(self, header: StreamHeader, overhead_bytes: int = 0, bins: int = DEFAULT_BINS):
        if bins < 8:
            raise ConfigurationError("bins must be at least 8")
        self.header = header
        self.overhead_bytes = int(overhead_bytes)
        self.bins = int(bins)
        self._levels = sorted(header.levels, key=lambda enc: enc.level)

    @cached_property
    def _choice_cache(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        # Per level, the cost and error of every keep choice.  Built by the
        # first DP (or error/payload query): a read at the stored bound
        # takes :meth:`_full_plan` and never needs them.
        choices: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for enc in self._levels:
            # cost[k] = bytes loaded when keeping the k most significant planes.
            cost = np.concatenate(([0], np.cumsum(header_plane_sizes(enc))))
            # error[k] = propagated Theorem-1 error when keeping k planes.
            # Stream groups are per interpolation sweep, so the information
            # loss of group ``l`` passes through exactly ``l − 1`` later
            # prediction sweeps and the paper's p^(l−1) factor is exact.
            delta = np.asarray(enc.delta_table, dtype=np.float64)
            err = propagation_factor(self.header.method, enc.level) * delta[::-1]
            choices[enc.level] = (cost.astype(np.float64), err)
        return choices

    # ----------------------------------------------------------------- helpers

    def _full_plan(self) -> LoadingPlan:
        return LoadingPlan(
            keep={enc.level: enc.nbits for enc in self._levels},
            predicted_error=self.header.error_bound,
            payload_bytes=self.header.payload_bytes() - self.header.anchor_size,
            overhead_bytes=self.overhead_bytes,
        )

    def plan_error(self, keep: Dict[int, int]) -> float:
        """Theorem-1 error bound of an arbitrary keep-assignment."""
        total = self.header.error_bound
        for enc in self._levels:
            k = keep.get(enc.level, 0)
            _, err = self._choice_cache[enc.level]
            total += float(err[k])
        return total

    def plan_payload(self, keep: Dict[int, int]) -> int:
        """Plane bytes loaded by an arbitrary keep-assignment."""
        payload = 0
        for enc in self._levels:
            k = keep.get(enc.level, 0)
            cost, _ = self._choice_cache[enc.level]
            payload += int(cost[k])
        return payload

    def _make_plan(self, keep: Dict[int, int]) -> LoadingPlan:
        return LoadingPlan(
            keep=dict(keep),
            predicted_error=self.plan_error(keep),
            payload_bytes=self.plan_payload(keep),
            overhead_bytes=self.overhead_bytes,
        )

    # ------------------------------------------------------------- error mode

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

    # ----------------------------------------------------------- bitrate mode

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

    def plan_for_bitrate(self, bitrate: float) -> LoadingPlan:
        """Convenience wrapper: budget expressed in bits per scalar value."""
        if not bitrate > 0 or not np.isfinite(bitrate):
            raise ConfigurationError("bitrate must be a positive finite number")
        byte_budget = int(np.floor(bitrate * self.header.n_elements / 8.0))
        return self.plan_for_size(max(byte_budget, 1))
