"""Common interface for all committee schedulers.

Every algorithm (SE and the baselines) consumes an
:class:`repro.core.problem.EpochInstance` and produces a
:class:`ScheduleResult` carrying the selected mask plus a best-so-far
utility trace, so the convergence figures (Figs. 11, 12, 14) can plot every
algorithm on the same axes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.problem import EpochInstance
from repro.core.repair import repair_cardinality
from repro.core.solution import Solution
from repro.sim.rng import spawn_rng

__all__ = [
    "ScheduleResult",
    "Scheduler",
    "greedy_feasible_start",
    "random_feasible_start",
]


@dataclass
class ScheduleResult:
    """Outcome of one scheduler run on one epoch instance."""

    algorithm: str
    mask: np.ndarray
    utility: float
    weight: int
    count: int
    iterations: int
    utility_trace: np.ndarray

    @classmethod
    def from_solution(
        cls,
        algorithm: str,
        solution: Solution,
        iterations: int,
        utility_trace: Optional[List[float]] = None,
    ) -> "ScheduleResult":
        """Wrap a Solution (plus its best-so-far trace) into a result."""
        trace = np.asarray(utility_trace if utility_trace is not None else [solution.utility])
        return cls(
            algorithm=algorithm,
            mask=solution.mask.copy(),
            utility=solution.utility,
            weight=solution.weight,
            count=solution.count,
            iterations=iterations,
            utility_trace=trace,
        )


class Scheduler(abc.ABC):
    """Abstract committee scheduler."""

    #: Short name used in figures and CSV headers ("SE", "SA", "DP", "WOA", ...).
    name: str = "base"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    @abc.abstractmethod
    def solve(self, instance: EpochInstance, budget_iterations: int) -> ScheduleResult:
        """Schedule one epoch within an iteration budget."""

    def _rng(self, instance: EpochInstance) -> np.random.Generator:
        """A per-(scheduler, instance-size) RNG stream; deterministic per seed."""
        return spawn_rng(self.seed, f"{self.name}:{instance.num_shards}")


def greedy_feasible_start(
    instance: EpochInstance, rng: Optional[np.random.Generator] = None
) -> Solution:
    """A capacity-feasible starting point shared by the iterative baselines.

    Packs shards by decreasing value density until the capacity or the value
    sign runs out, then (if needed) pads with the lightest remaining shards
    to reach the cardinality floor.
    """
    density = np.where(
        instance.tx_counts > 0,
        instance.values / np.maximum(instance.tx_counts, 1),
        np.where(instance.values > 0, np.inf, -np.inf),
    )
    solution = Solution(instance)
    for position in np.argsort(-density, kind="stable"):
        position = int(position)
        if instance.values[position] <= 0 and solution.count >= instance.n_min:
            break
        if solution.weight + int(instance.tx_counts[position]) <= instance.capacity:
            solution.flip(position)
    repair_cardinality(instance, solution)
    return solution


def random_feasible_start(
    instance: EpochInstance, rng: np.random.Generator, max_tries: int = 200
) -> Solution:
    """A random capacity-feasible subset at a random feasible cardinality."""
    n_hi = max(instance.max_feasible_cardinality, 1)
    n_lo = max(1, min(instance.n_min, n_hi))
    for _ in range(max_tries):
        cardinality = int(rng.integers(n_lo, n_hi + 1))
        picked = rng.choice(instance.num_shards, size=cardinality, replace=False)
        candidate = Solution.from_indices(instance, picked)
        if candidate.capacity_feasible:
            return candidate
    return greedy_feasible_start(instance)
