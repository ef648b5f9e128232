"""Scalable upper bounds on the MVCom optimum.

Exact solvers top out around 40 shards; the paper's epochs have 400-800.
These bounds certify large-scale results: an algorithm whose utility is
within x% of an *upper bound* is within x% of the (unknown) optimum.

* :func:`fractional_knapsack_bound` -- the LP relaxation of constraint (4)
  with binary relaxed to [0, 1] (cardinality floor dropped, which can only
  raise the bound): greedy by value density with one fractional item.
* :func:`lagrangian_bound` -- :math:`\\min_{\\mu \\ge 0}\\; \\mu \\hat C +
  \\sum_i (v_i - \\mu s_i)^+`, the Lagrangian dual of the capacity
  constraint, optimised exactly over its piecewise-linear breakpoints.
  Always at least as tight as evaluating at a single multiplier and equals
  the LP bound at the optimal multiplier (LP duality); both are implemented
  so the tests can cross-validate them.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import EpochInstance


def fractional_knapsack_bound(instance: EpochInstance) -> float:
    """LP-relaxation upper bound on the epoch utility."""
    values = instance.values.astype(np.float64)
    weights = instance.tx_counts.astype(np.float64)
    density = np.where(weights > 0, values / np.maximum(weights, 1e-12), np.inf)
    order = np.argsort(-density, kind="stable")
    bound = 0.0
    capacity = float(instance.capacity)
    for position in order:
        value = values[position]
        weight = weights[position]
        if weight <= 0:
            # Weightless items sort first (density +inf) whatever their
            # sign: take the positive ones, skip the rest.
            if value > 0:
                bound += value
            continue
        if value <= 0:
            break
        if weight <= capacity:
            bound += value
            capacity -= weight
        else:
            bound += value * (capacity / weight)
            break
    return float(bound)


def lagrangian_bound(instance: EpochInstance) -> float:
    """Lagrangian-dual upper bound, minimised over all breakpoints.

    For a fixed multiplier ``mu``, relaxing constraint (4) gives
    ``L(mu) = mu * C + sum_i max(v_i - mu * s_i, 0)`` -- an upper bound for
    every feasible selection.  ``L`` is piecewise linear and convex in
    ``mu`` with breakpoints at ``v_i / s_i``, so the exact minimum is found
    by evaluating every breakpoint (plus mu = 0).
    """
    values = instance.values.astype(np.float64)
    weights = instance.tx_counts.astype(np.float64)
    positive = weights > 0
    breakpoints = np.unique(
        np.concatenate([[0.0], np.maximum(values[positive] / weights[positive], 0.0)])
    )
    capacity = float(instance.capacity)
    best = np.inf
    for mu in breakpoints:
        dual = mu * capacity + np.maximum(values - mu * weights, 0.0).sum()
        best = min(best, float(dual))
    return best


def certify(instance: EpochInstance, achieved_utility: float) -> dict:
    """Certificate record: how close ``achieved_utility`` is to optimal.

    The utility upper bound is the tighter of the fractional-knapsack and
    Lagrangian relaxations of eq. (5) (capacity const. 4 dualised);
    ``gap_fraction`` is therefore an upper bound on the true optimality gap.
    """
    bound = min(fractional_knapsack_bound(instance), lagrangian_bound(instance))
    if bound <= 0:
        gap = 0.0 if achieved_utility >= bound else np.inf
    else:
        gap = max(bound - achieved_utility, 0.0) / bound
    return {
        "upper_bound": bound,
        "achieved": float(achieved_utility),
        "gap_fraction": float(gap),
    }
