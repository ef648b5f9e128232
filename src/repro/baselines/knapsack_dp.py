"""Dynamic Programming baseline (the paper's "DP" [23, 24]).

The epoch subproblem has knapsack structure, so the natural DP baseline is
the classic capacity-indexed table.  Two design choices mirror the paper:

* **Objective.** The paper describes DP as "a classical decision-making
  technique" applied to the scheduling problem and observes that it attains
  competitive *utility* at large ``|I_j|`` (Fig. 11) while producing a
  "pretty low" *Valuable Degree* (Fig. 10).  That combination is exactly
  what a **throughput-oriented** knapsack produces: maximise the packed TXs
  :math:`\\sum_i x_i s_i` under :math:`\\hat C`, blind to the age term.  It
  fills the block almost perfectly (and :math:`\\alpha s_i` dominates the
  utility), but it happily packs stale shards, which the Valuable Degree
  punishes.  This is the default ``objective="throughput"``; the
  utility-aware variant (``objective="utility"``) is kept for the ablation
  bench.

* **Scaling.**  The paper's capacities reach :math:`\\hat C = 10^6`; an
  exact ``n x Ĉ`` table is infeasible, so weights are bucketed onto a
  ``table_size``-slot axis, conservatively rounded *up* so the decoded
  selection never violates Ĉ.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import feasible_result
from repro.baselines.base import ScheduleResult, Scheduler
from repro.core.problem import EpochInstance
from repro.core.repair import repair_cardinality
from repro.core.solution import Solution


class DynamicProgrammingScheduler(Scheduler):
    """Scaled-weight knapsack DP with cardinality-floor repair."""

    name = "DP"

    def __init__(self, seed: int = 0, table_size: int = 20_000, objective: str = "throughput") -> None:
        super().__init__(seed=seed)
        if table_size < 10:
            raise ValueError("table_size too small to be meaningful")
        if objective not in ("throughput", "utility"):
            raise ValueError("objective must be 'throughput' or 'utility'")
        self.table_size = table_size
        self.objective = objective

    @feasible_result
    def solve(self, instance: EpochInstance, budget_iterations: int = 1) -> ScheduleResult:
        """One-shot DP knapsack (budget sets the flat trace length)."""
        if self.objective == "throughput":
            item_values = instance.tx_counts.astype(np.float64)
        else:
            item_values = instance.values.astype(np.float64)
        solution = self._knapsack(instance, item_values)
        repair_cardinality(instance, solution)
        # DP is one-shot: its "convergence trace" is the flat line the paper
        # plots against the iterative algorithms.
        trace = [solution.utility] * max(budget_iterations, 1)
        return ScheduleResult.from_solution(self.name, solution, 1, trace)

    # ------------------------------------------------------------------ #
    def _knapsack(self, instance: EpochInstance, item_values: np.ndarray) -> Solution:
        granularity = max(1, int(np.ceil(instance.capacity / self.table_size)))
        slots = instance.capacity // granularity
        # Round scaled weights UP so the unscaled selection is always <= Ĉ.
        weights = np.ceil(instance.tx_counts / granularity).astype(np.int64)
        weights = np.maximum(weights, 0)

        candidates = [
            int(i) for i in range(instance.num_shards)
            if item_values[i] > 0 and weights[i] <= slots
        ]
        table = np.full(slots + 1, -np.inf)
        table[0] = 0.0
        taken = np.zeros((len(candidates), slots + 1), dtype=bool)

        for row, item in enumerate(candidates):
            weight = int(weights[item])
            value = float(item_values[item])
            if weight == 0:
                # Free item with positive value: always take it.
                table += value
                taken[row, :] = True
                continue
            shifted = np.full(slots + 1, -np.inf)
            shifted[weight:] = table[:-weight] + value
            improved = shifted > table
            table = np.where(improved, shifted, table)
            taken[row] = improved

        best_slot = int(np.argmax(table))
        solution = Solution(instance)
        slot = best_slot
        for row in range(len(candidates) - 1, -1, -1):
            if taken[row, slot]:
                item = candidates[row]
                solution.flip(item)
                slot -= int(weights[item])
        return solution

