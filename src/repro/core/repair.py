"""Feasibility repair moves shared by SE and the baselines.

The paper's constraints — :math:`\\sum_i x_i \\ge N_{min}` (const. 3) and
:math:`\\sum_i x_i s_i \\le \\hat C` (const. 4) — can both be broken by
dynamic events: a LEAVE removes selected shards (cardinality drops), a JOIN
re-values every shard (the carried incumbent may suddenly exceed Ĉ after a
rebase).  This module holds the deterministic repair used everywhere a
solution must be coerced back into the feasible region without discarding
the exploration state that produced it.

Every move composes one trim (:func:`_drop_worst`) and one pad
(:func:`_pad`), each walking one stable order instead of taking a fresh
argmin/argmax after every flip.  The walk is exact: a trim changes no
value, so the next-worst member is the next entry of the ascending order;
a pad only shrinks the slack, so an outsider that does not fit now never
fits later, and the next pick is the next fitting entry of the
``(-value, position)`` order — until a weight-reducing swap frees slack
and the walk restarts.  Stable sorting keeps numpy's first-index tie
rule, so the flips, their order and the incremental ``Solution`` caches
are those of a per-flip re-scan.

The module lives in ``core`` so :mod:`repro.core.se` can repair carried
incumbents after dynamic events without ``core`` importing ``baselines``
(the import flows the other way).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.problem import EpochInstance
from repro.core.solution import Solution

#: The walk's tx for a member: above any slack, so it never fits.
_NEVER_FITS = np.iinfo(np.int64).max


def _drop_worst(
    instance: EpochInstance, solution: Solution, done: Callable[[Solution], bool]
) -> None:
    """The one trim: drop the lowest-value member until ``done(solution)``."""
    if done(solution):
        return
    selected = solution.selected_positions()
    for position in selected[np.argsort(instance.values[selected], kind="stable")]:
        if done(solution):
            return
        solution.flip(int(position))


def _pad(instance: EpochInstance, solution: Solution, target: int) -> bool:
    """The one pad (see :func:`repair_cardinality`) up to ``target`` members.

    Returns ``False`` when the target is out of reach: no outsider fits and
    no swap reduces the weight, or a side runs empty.  ``walk_tx`` holds
    the tx counts in walk order with members set to ``_NEVER_FITS``; one
    vectorised test per walk finds the outsiders that fit the slack at its
    start, and each is re-checked against the current slack in turn.
    """
    if solution.count >= target:
        return True
    tx_counts = instance.tx_counts
    tx_list = instance.tx_counts_list
    order = np.argsort(-instance.values, kind="stable")
    rank = np.argsort(order)
    walk_tx = np.where(solution.mask[order], _NEVER_FITS, tx_counts[order])
    while True:
        slack = instance.capacity - solution.weight
        fits = np.flatnonzero(walk_tx <= slack)
        for step, position in zip(fits.tolist(), order[fits].tolist()):
            if tx_list[position] <= slack:
                solution.flip(position)
                slack -= tx_list[position]
                walk_tx[step] = _NEVER_FITS
                if solution.count >= target:
                    return True
        if solution.count in (0, instance.num_shards):
            return False
        mask = solution.mask
        heaviest = int(np.argmax(np.where(mask, tx_counts, -1)))
        lightest = int(np.argmin(np.where(mask, _NEVER_FITS, tx_counts)))
        if int(tx_counts[lightest]) >= int(tx_counts[heaviest]):
            return False
        solution.swap(heaviest, lightest)
        walk_tx[rank[heaviest]] = tx_counts[heaviest]
        walk_tx[rank[lightest]] = _NEVER_FITS


def repair_cardinality(instance: EpochInstance, solution: Solution) -> None:
    """Enforce const. (3) ``count >= N_min`` in place, keeping const. (4).

    Pads with the highest-value unselected shard that still fits the
    capacity Ĉ; when no shard fits, swaps the heaviest selected shard for
    the lightest outsider (strictly reducing weight) and retries.
    Terminates because weight is a strictly decreasing integer across
    consecutive swaps, and always succeeds when ``n_min <=
    max_feasible_cardinality`` — which :class:`EpochInstance` guarantees by
    construction.
    """
    _pad(instance, solution, instance.n_min)


def repair_capacity(instance: EpochInstance, solution: Solution) -> None:
    """Enforce const. (4) ``weight <= Ĉ`` in place by trimming worst picks.

    Drops the lowest-value selected shard until the packed TXs fit the
    capacity Ĉ.  May leave the cardinality below ``N_min`` (const. 3);
    callers that need both constraints follow up with
    :func:`repair_cardinality`, whose pad-or-swap loop never re-breaks the
    capacity.
    """
    _drop_worst(instance, solution, lambda s: s.capacity_feasible)


def repair_feasibility(instance: EpochInstance, solution: Solution) -> None:
    """Re-establish const. (3) *and* (4) in place after a rebase.

    Order matters: the capacity trim first (it only removes shards), then
    the cardinality pad (it only adds shards that fit the remaining Ĉ
    slack, or performs weight-reducing swaps) — so the composition lands in
    the feasible region whenever the instance admits one at all.
    """
    repair_capacity(instance, solution)
    repair_cardinality(instance, solution)


def greedy_improve(instance: EpochInstance, solution: Solution) -> None:
    """One deterministic local-improvement pass in place (feasible → feasible).

    Used when a *carried* incumbent is rebased onto a drifted epoch
    instance (warm starts): the old membership is a base worth keeping,
    but the instance's values have moved under it.  Two monotone phases,
    each strictly utility-improving:

    1. drop every negative-value member, most negative first, while
       const. (3) ``count > N_min`` holds (dropping also frees Ĉ slack);
    2. add unselected positive-value shards, best value first, whenever
       the remaining slack fits them (const. 4).

    Draws no randomness and never worsens the solution, so applying it to
    a warm incumbent cannot break the feasibility contract — it just turns
    carried knowledge into an actual head start.
    """
    values = instance.values
    tx_counts = instance.tx_counts
    selected = solution.selected_positions()
    negative = selected[values[selected] < 0]
    for position in negative[np.argsort(values[negative])]:
        if solution.count <= instance.n_min:
            break
        solution.flip(int(position))
    unselected = solution.unselected_positions()
    gains = unselected[values[unselected] > 0]
    for position in gains[np.argsort(-values[gains])]:
        if int(tx_counts[position]) <= instance.capacity - solution.weight:
            solution.flip(int(position))


def resize_to_cardinality(
    instance: EpochInstance, solution: Solution, cardinality: int
) -> bool:
    """Coerce ``solution`` to exactly ``cardinality`` members, under Ĉ.

    The repair a warm-started solution thread :math:`f_n` needs when
    committee churn broke its exact-``n`` family shape: departed members
    leave the rebased count short (or a shrunken range leaves it long).
    Trims the lowest-value members while over; pads with the best-value
    fitting outsider while short, falling back to weight-reducing swaps
    (heaviest member for lightest outsider) when nothing fits; finishes by
    swapping the heaviest member for the best-value lighter outsider until
    const. (4) holds.  Returns ``True`` on success — the caller keeps the
    repaired carried solution — and ``False`` when the target shape is
    unreachable, in which case the solution should be discarded and
    re-initialised instead.
    """
    _drop_worst(instance, solution, lambda s: s.count <= cardinality)
    if not _pad(instance, solution, cardinality):
        return False
    tx_counts = instance.tx_counts
    values = instance.values
    while not solution.capacity_feasible:
        selected = solution.selected_positions()
        unselected = solution.unselected_positions()
        if not len(selected) or not len(unselected):
            return False
        heaviest = int(selected[np.argmax(tx_counts[selected])])
        lighter = unselected[tx_counts[unselected] < int(tx_counts[heaviest])]
        if not len(lighter):
            return False
        solution.swap(heaviest, int(lighter[np.argmax(values[lighter])]))
    return True


def greedy_swap_improve(
    instance: EpochInstance, solution: Solution, max_swaps: int = 4
) -> None:
    """Cardinality-preserving improving swaps in place (at most ``max_swaps``).

    The fixed-cardinality counterpart of :func:`greedy_improve`, for
    retained solution threads :math:`f_n` whose cardinality contract must
    survive a warm-start rebase: repeatedly swap the lowest-value member
    for the best-value outsider that fits the freed capacity, stopping at
    the first non-improving exchange.  ``max_swaps`` is deliberately small
    — the pass re-anchors a stale thread to the drifted instance without
    collapsing the Γ replicas' population diversity onto one greedy point.
    """
    values = instance.values
    tx_counts = instance.tx_counts
    for _ in range(max_swaps):
        selected = solution.selected_positions()
        unselected = solution.unselected_positions()
        if not len(selected) or not len(unselected):
            return
        worst = int(selected[np.argmin(values[selected])])
        slack = instance.capacity - solution.weight + int(tx_counts[worst])
        fitting = unselected[tx_counts[unselected] <= slack]
        if not len(fitting):
            return
        best = int(fitting[np.argmax(values[fitting])])
        if values[best] <= values[worst]:
            return
        solution.swap(worst, best)
