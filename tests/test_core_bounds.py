"""Tests for the scalable optimality bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import certify, fractional_knapsack_bound, lagrangian_bound
from repro.core.exact import branch_and_bound_optimum, brute_force_optimum
from repro.core.problem import EpochInstance, MVComConfig
from repro.core.se import SEConfig, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload

from tests.conftest import random_instance


class TestAgainstExact:
    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_dominate_the_optimum(self, seed):
        instance = random_instance(14, seed=seed)
        optimum = brute_force_optimum(instance).utility
        assert fractional_knapsack_bound(instance) >= optimum - 1e-6
        assert lagrangian_bound(instance) >= optimum - 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_lagrangian_matches_lp_bound(self, seed):
        """LP duality: the optimised Lagrangian equals the fractional bound."""
        instance = random_instance(14, seed=seed)
        lp = fractional_knapsack_bound(instance)
        lagrange = lagrangian_bound(instance)
        assert lagrange == pytest.approx(lp, rel=1e-9, abs=1e-6)

    def test_bound_is_reasonably_tight(self):
        instance = random_instance(30, seed=9)
        optimum = branch_and_bound_optimum(instance).utility
        bound = fractional_knapsack_bound(instance)
        assert bound <= 1.1 * optimum  # one fractional item of slack


class TestZeroWeightShards:
    def test_zero_tx_negative_value_shard_does_not_zero_the_bound(self):
        """A zero-tx shard with negative value (it arrived early, so its
        age cost is positive) has density +inf and sorts first; it must
        be skipped, not end the scan with a bound of 0."""
        config = MVComConfig(alpha=1.5, capacity=500, n_min_fraction=0.0)
        instance = EpochInstance([0, 300, 200, 400], [1.0, 60.0, 50.0, 40.0], config)
        assert instance.values[0] < 0
        optimum = brute_force_optimum(instance).utility
        bound = fractional_knapsack_bound(instance)
        assert bound > 0
        assert bound >= optimum - 1e-6
        assert lagrangian_bound(instance) == pytest.approx(bound, rel=1e-9)

    def test_zero_tx_zero_value_shard_is_skipped(self):
        """The slowest shard sets the deadline, so with zero TXs its value
        is exactly 0: weightless and worthless, it must not stop the scan."""
        config = MVComConfig(alpha=1.5, capacity=500, n_min_fraction=0.0)
        instance = EpochInstance([300, 0, 200], [40.0, 70.0, 50.0], config)
        assert instance.values[1] == 0.0
        optimum = brute_force_optimum(instance).utility
        assert fractional_knapsack_bound(instance) >= optimum - 1e-6 > 0


class TestCertify:
    def test_certificate_on_trace_workload(self):
        """SE at paper scale certifies within a few percent of optimal."""
        workload = generate_epoch_workload(
            WorkloadConfig(num_committees=200, capacity=200_000, seed=13)
        )
        result = StochasticExploration(
            SEConfig(num_threads=5, max_iterations=5_000, convergence_window=1_200, seed=2)
        ).solve(workload.instance)
        certificate = certify(workload.instance, result.best_utility)
        assert certificate["upper_bound"] >= result.best_utility - 1e-6
        assert certificate["gap_fraction"] <= 0.05

    def test_gap_zero_when_achieving_bound(self):
        config = MVComConfig(alpha=1.5, capacity=10**9)
        instance = EpochInstance([100, 200], [10.0, 20.0], config)
        everything = float(instance.values.sum())
        certificate = certify(instance, everything)
        assert certificate["gap_fraction"] == pytest.approx(0.0, abs=1e-9)


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=800),
                  st.floats(min_value=0, max_value=500, allow_nan=False)),
        min_size=2, max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_bounds_dominate_every_feasible_selection(shards):
    tx_counts = [s[0] for s in shards]
    latencies = [s[1] for s in shards]
    config = MVComConfig(alpha=2.0, capacity=max(sum(tx_counts) // 2, 1), n_min_fraction=0.0)
    instance = EpochInstance(tx_counts, latencies, config)
    bound = min(fractional_knapsack_bound(instance), lagrangian_bound(instance))
    optimum = brute_force_optimum(instance).utility
    assert bound >= optimum - 1e-6
