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

One routine, :meth:`OptimizedLoader._knapsack`, runs the DP for both modes
with the two tables' roles swapped, without per-choice allocations or choice
tables; its plans are bitwise those of the straightforward loops kept in
``tests/oracle_optimizer.py``.  The per-level tables it runs over are built
by the first DP: a loader that only ever answers the stored bound (the full
plan) never builds them.  Every target must be a positive finite number;
anything else is a :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import math
import sys
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

    def __init__(self, header: StreamHeader, overhead_bytes: int = 0):
        self.header = header
        self.overhead_bytes = int(overhead_bytes)
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

    # -------------------------------------------------------------- the DP

    def _knapsack(
        self, budget: float, weight: List[np.ndarray], value: List[np.ndarray]
    ) -> Optional[Dict[int, int]]:
        """Per level, the keep that minimises Σ ``value`` subject to
        Σ ``weight`` ≤ ``budget`` (one table of each per level, in level
        order); ``None`` when no plan fits.

        ``dp[b]`` is the least value with total weight ≤ ``(b / bins) ·
        budget``.  Each level folds in every keep ``k``, most planes first,
        by a shifted add and an elementwise minimum that keeps the first
        occurrence.  The backtrack redoes the same float sums, so the first
        ``k`` that reproduces ``dp[r]`` is the one the fold chose.
        """
        bins = DEFAULT_BINS
        n = bins + 1
        # Shifts stay floats until they are known to fit: a budget a hair
        # above zero puts some past int64, where a cast would wrap them
        # negative and make them free.
        shifts = [np.ceil(w / budget * bins).tolist() for w in weight]
        values = [v.tolist() for v in value]
        # Row i is the DP vector before level i; the last row is the answer.
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
        choices = self._choice_cache.values()
        keep = self._knapsack(
            budget, [err for _, err in choices], [cost for cost, _ in choices]
        )
        return self._full_plan() if keep is None else self._make_plan(keep)

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
        # Keeping no plane costs nothing, so some plan always fits.
        choices = self._choice_cache.values()
        keep = self._knapsack(
            budget, [cost for cost, _ in choices], [err for _, err in choices]
        )
        return self._make_plan(keep)

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
