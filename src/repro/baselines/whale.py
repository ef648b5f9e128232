"""Binary Whale Optimization Algorithm baseline (the paper's "WOA" [25, 26]).

WOA imitates humpback hunting: each *whale* (candidate solution) either
encircles the current best (exploitation), spirals towards it
(bubble-net attack), or follows a random whale (exploration), with the
balance controlled by a coefficient ``a`` that decays from 2 to 0 over the
run.  For the binary MVCom domain we keep whales as continuous position
vectors and decode them through a sigmoid transfer function, the standard
binary-WOA construction; decoded selections are repaired to capacity
feasibility before evaluation.

The paper finds WOA consistently worst -- the swarm's dense continuous
updates map poorly onto a high-dimensional binary knapsack -- and this
implementation reproduces that ordering without any artificial handicap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.contracts import feasible_result
from repro.baselines.base import ScheduleResult, Scheduler
from repro.core.problem import EpochInstance
from repro.core.repair import repair_cardinality
from repro.core.solution import Solution


@dataclass(frozen=True)
class WhaleParams:
    """Swarm-size and spiral-shape parameters of WOA."""
    population: int = 30
    spiral_constant: float = 1.0  # the paper's b in e^{bl} cos(2*pi*l)

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("WOA needs at least two whales")


class WhaleOptimizationScheduler(Scheduler):
    """Binary WOA with sigmoid transfer and capacity repair."""

    name = "WOA"

    def __init__(self, seed: int = 0, params: WhaleParams = WhaleParams()) -> None:
        super().__init__(seed=seed)
        self.params = params

    @feasible_result
    def solve(self, instance: EpochInstance, budget_iterations: int) -> ScheduleResult:
        """Run the whale swarm for ``budget_iterations`` generations."""
        rng = self._rng(instance)
        dim = instance.num_shards
        pop = self.params.population

        positions = rng.normal(0.0, 1.0, size=(pop, dim))
        fitness, masks = self._evaluate(instance, positions, rng)
        best_index = int(np.argmax(fitness))
        best_fitness = float(fitness[best_index])
        best_mask = masks[best_index].copy()
        best_position = positions[best_index].copy()
        trace = []

        for iteration in range(budget_iterations):
            a = 2.0 * (1.0 - iteration / max(budget_iterations, 1))
            for w in range(pop):
                r1, r2 = rng.random(dim), rng.random(dim)
                coefficient_a = 2.0 * a * r1 - a
                coefficient_c = 2.0 * r2
                if rng.random() < 0.5:
                    if np.abs(coefficient_a).mean() < 1.0:
                        # Encircling the best whale.
                        distance = np.abs(coefficient_c * best_position - positions[w])
                        positions[w] = best_position - coefficient_a * distance
                    else:
                        # Exploring around a random whale.
                        partner = positions[int(rng.integers(pop))]
                        distance = np.abs(coefficient_c * partner - positions[w])
                        positions[w] = partner - coefficient_a * distance
                else:
                    # Spiral bubble-net attack.
                    spiral = rng.uniform(-1.0, 1.0)
                    distance = np.abs(best_position - positions[w])
                    positions[w] = (
                        distance
                        * math.exp(self.params.spiral_constant * spiral)
                        * math.cos(2.0 * math.pi * spiral)
                        + best_position
                    )
            np.clip(positions, -6.0, 6.0, out=positions)

            fitness, masks = self._evaluate(instance, positions, rng)
            round_best = int(np.argmax(fitness))
            if float(fitness[round_best]) > best_fitness:
                best_fitness = float(fitness[round_best])
                best_mask = masks[round_best].copy()
                best_position = positions[round_best].copy()
            trace.append(best_fitness)

        solution = Solution(instance, best_mask)
        return ScheduleResult.from_solution(self.name, solution, budget_iterations, trace)

    # ------------------------------------------------------------------ #
    def _evaluate(self, instance: EpochInstance, positions: np.ndarray, rng: np.random.Generator):
        """Sigmoid-decode each whale, repair to capacity, score utilities."""
        probabilities = 1.0 / (1.0 + np.exp(-positions))
        raw_masks = rng.random(positions.shape) < probabilities
        fitness = np.empty(len(positions))
        masks = []
        for w, raw in enumerate(raw_masks):
            mask = self._repair(instance, raw.copy(), rng)
            masks.append(mask)
            fitness[w] = float(instance.values[mask].sum())
        return fitness, masks

    @staticmethod
    def _repair(instance: EpochInstance, mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Drop random selected shards until the capacity Ĉ holds, then
        enforce the cardinality floor N_min (const. 3) via the shared
        swap-based repair, so every scored whale is fully feasible."""
        weight = int(instance.tx_counts[mask].sum())
        while weight > instance.capacity:
            selected = np.flatnonzero(mask)
            victim = int(selected[rng.integers(len(selected))])
            mask[victim] = False
            weight -= int(instance.tx_counts[victim])
        if int(mask.sum()) < instance.n_min:
            solution = Solution(instance, mask)
            repair_cardinality(instance, solution)
            return solution.mask
        return mask
