"""The repair moves against the per-flip re-scan loops they replaced.

:mod:`repro.core.repair` composes every move from one pad and one trim that
each walk a single stable order.  The reference below is the previous
implementation, kept verbatim: it re-scans the selection and takes a fresh
argmax/argmin after every flip.  The property asserts that both make the
same flips in the same order, so masks, the incremental ``utility`` /
``weight`` / ``count`` caches (bitwise) and return values all agree —
across value ties, zero-tx shards, capacities too tight for any shard, and
targets of 0, ``n``, ``n + 1`` and above ``max_feasible_cardinality``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import EpochInstance, MVComConfig
from repro.core.repair import (
    repair_capacity,
    repair_cardinality,
    repair_feasibility,
    resize_to_cardinality,
)
from repro.core.solution import Solution


# --------------------------------------------------------------------- #
# reference: the per-flip re-scan loops, verbatim
# --------------------------------------------------------------------- #
def oracle_repair_cardinality(instance: EpochInstance, solution: Solution) -> None:
    tx_counts = instance.tx_counts
    values = instance.values
    while solution.count < instance.n_min:
        unselected = solution.unselected_positions()
        if len(unselected) == 0:
            break
        slack = instance.capacity - solution.weight
        fitting = unselected[tx_counts[unselected] <= slack]
        if len(fitting):
            solution.flip(int(fitting[np.argmax(values[fitting])]))
            continue
        selected = solution.selected_positions()
        if len(selected) == 0:
            break  # nothing fits at all: n_cap = 0, so n_min = 0 too
        heaviest = int(selected[np.argmax(tx_counts[selected])])
        lightest = int(unselected[np.argmin(tx_counts[unselected])])
        if int(tx_counts[lightest]) >= int(tx_counts[heaviest]):
            break  # cannot reduce weight further
        solution.swap(heaviest, lightest)


def oracle_repair_capacity(instance: EpochInstance, solution: Solution) -> None:
    while not solution.capacity_feasible and solution.count > 0:
        selected = solution.selected_positions()
        worst = selected[np.argmin(instance.values[selected])]
        solution.flip(int(worst))


def oracle_resize_to_cardinality(
    instance: EpochInstance, solution: Solution, cardinality: int
) -> bool:
    values = instance.values
    tx_counts = instance.tx_counts
    while solution.count > cardinality:
        selected = solution.selected_positions()
        solution.flip(int(selected[np.argmin(values[selected])]))
    while solution.count < cardinality:
        unselected = solution.unselected_positions()
        if not len(unselected):
            return False
        slack = instance.capacity - solution.weight
        fitting = unselected[tx_counts[unselected] <= slack]
        if len(fitting):
            solution.flip(int(fitting[np.argmax(values[fitting])]))
            continue
        selected = solution.selected_positions()
        if not len(selected):
            return False
        heaviest = int(selected[np.argmax(tx_counts[selected])])
        lightest = int(unselected[np.argmin(tx_counts[unselected])])
        if int(tx_counts[lightest]) >= int(tx_counts[heaviest]):
            return False
        solution.swap(heaviest, lightest)
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


def oracle_repair_feasibility(instance: EpochInstance, solution: Solution) -> None:
    oracle_repair_capacity(instance, solution)
    oracle_repair_cardinality(instance, solution)


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #
class _Recording(Solution):
    """A solution that logs every flip (``swap`` flips twice)."""

    __slots__ = ("flips",)

    def flip(self, index: int) -> None:
        self.flips.append(index)
        super().flip(index)


def _recording(instance: EpochInstance, mask: np.ndarray) -> _Recording:
    solution = _Recording(instance, mask)
    solution.flips = []
    return solution


def _state(solution: _Recording, returned) -> tuple:
    return (
        bytes(solution.selected),
        np.float64(solution.utility).tobytes(),
        solution.weight,
        solution.count,
        solution.flips,
        returned,
    )


def _assert_same(instance, mask, new, old) -> None:
    fresh, reference = _recording(instance, mask), _recording(instance, mask)
    assert _state(fresh, new(fresh)) == _state(reference, old(reference))


# Small alphabets make value ties (equal tx and latency) and zero-tx shards
# common; the capacity ranges from "nothing fits" to "everything fits".
_TX = st.sampled_from([0, 0, 1, 2, 3, 3, 5, 8, 13, 40])
_LATENCY = st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0])


@st.composite
def _cases(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    tx_counts = draw(st.lists(_TX, min_size=n, max_size=n))
    latencies = draw(st.lists(_LATENCY, min_size=n, max_size=n))
    total = sum(tx_counts)
    capacity = draw(st.one_of(
        st.just(1),
        st.integers(min_value=1, max_value=max(total, 1) + 5),
        st.just(max(total, 1)),
    ))
    config = MVComConfig(
        alpha=draw(st.sampled_from([1.5, 5.0])),
        capacity=capacity,
        n_min_fraction=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
    )
    instance = EpochInstance(tx_counts, latencies, config)
    mask = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    n_cap = instance.max_feasible_cardinality
    target = draw(st.one_of(
        st.sampled_from([0, n, n + 1, n_cap, n_cap + 1, n_cap + 3]),
        st.integers(min_value=0, max_value=n + 2),
    ))
    return instance, mask, target


@settings(max_examples=600, deadline=None)
@given(_cases())
def test_repair_moves_match_the_rescan_oracle(case):
    instance, mask, target = case
    _assert_same(instance, mask, lambda s: repair_cardinality(instance, s),
                 lambda s: oracle_repair_cardinality(instance, s))
    _assert_same(instance, mask, lambda s: repair_capacity(instance, s),
                 lambda s: oracle_repair_capacity(instance, s))
    _assert_same(instance, mask, lambda s: repair_feasibility(instance, s),
                 lambda s: oracle_repair_feasibility(instance, s))
    _assert_same(instance, mask, lambda s: resize_to_cardinality(instance, s, target),
                 lambda s: oracle_resize_to_cardinality(instance, s, target))


def test_nothing_fits_and_full_selection_edges():
    """Deterministic corners: a capacity below every shard, a target of
    ``n`` and ``n + 1`` from the empty and the full selection."""
    tight = EpochInstance([4, 4, 6, 9], [0.0, 1.0, 1.0, 2.0], MVComConfig(capacity=3))
    assert tight.max_feasible_cardinality == 0
    roomy = EpochInstance([0, 0, 2, 2, 5], [0.0] * 5, MVComConfig(capacity=9))
    for instance in (tight, roomy):
        n = instance.num_shards
        for mask in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
            for target in (0, n, n + 1, instance.max_feasible_cardinality + 1):
                _assert_same(
                    instance, mask,
                    lambda s: resize_to_cardinality(instance, s, target),
                    lambda s: oracle_resize_to_cardinality(instance, s, target),
                )
            _assert_same(instance, mask, lambda s: repair_feasibility(instance, s),
                         lambda s: oracle_repair_feasibility(instance, s))
