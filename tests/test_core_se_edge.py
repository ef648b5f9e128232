"""Edge-case and robustness tests for the SE algorithm."""

import numpy as np
import pytest

from repro.core.problem import EpochInstance, MVComConfig
from repro.core.se import SEConfig, StochasticExploration

from tests.conftest import random_instance


def solve(instance, **kwargs):
    defaults = dict(num_threads=2, max_iterations=600, convergence_window=300, seed=4)
    defaults.update(kwargs)
    return StochasticExploration(SEConfig(**defaults)).solve(instance)


class TestDegenerateInstances:
    def test_two_shards(self):
        config = MVComConfig(alpha=1.5, capacity=150, n_min_fraction=0.0)
        instance = EpochInstance([100, 120], [10.0, 20.0], config)
        result = solve(instance)
        assert result.best_count >= 1
        assert result.best_weight <= 150

    def test_all_identical_shards(self):
        config = MVComConfig(alpha=1.5, capacity=3_000)
        instance = EpochInstance([1_000] * 6, [50.0] * 6, config)
        result = solve(instance)
        assert result.best_count == 3  # exactly what fits
        assert result.best_weight == 3_000

    def test_single_feasible_cardinality(self):
        """Capacity admits exactly one shard: every thread sits at n = 1."""
        config = MVComConfig(alpha=1.5, capacity=1_100, n_min_fraction=0.0)
        instance = EpochInstance([1_000, 1_050, 1_090], [5.0, 6.0, 7.0], config)
        result = solve(instance)
        assert result.best_count == 1
        assert set(result.thread_cardinalities) == {1}

    def test_everything_fits(self):
        """Sum under capacity: the full solution f_{|I_j|} must be found."""
        config = MVComConfig(alpha=10.0, capacity=10**8)
        instance = EpochInstance([10, 20, 30], [1.0, 2.0, 3.0], config)
        result = solve(instance)
        assert result.best_count == 3


class TestConfigurationExtremes:
    def test_single_solution_thread(self):
        instance = random_instance(15, seed=41)
        result = solve(instance, max_solution_threads=1)
        assert len(result.thread_cardinalities) == 1
        assert result.best_weight <= instance.capacity

    def test_tiny_beta_still_feasible(self):
        """Near-uniform exploration must still emit a feasible answer."""
        instance = random_instance(15, seed=42)
        result = solve(instance, beta=1e-9)
        assert result.best_weight <= instance.capacity
        assert result.best_count >= instance.n_min

    def test_huge_beta_is_greedy_and_stable(self):
        instance = random_instance(15, seed=43)
        result = solve(instance, beta=1e6, max_iterations=1_500, convergence_window=500)
        assert result.best_weight <= instance.capacity

    def test_nonzero_tau_changes_time_not_quality(self):
        instance = random_instance(15, seed=44)
        base = solve(instance, tau=0.0, max_iterations=1_500, convergence_window=1_500)
        shifted = solve(instance, tau=3.0, max_iterations=1_500, convergence_window=1_500)
        # tau uniformly rescales every timer: the race winners -- and hence
        # the whole trajectory -- are identical; only virtual time stretches.
        assert shifted.best_utility == pytest.approx(base.best_utility)
        assert shifted.virtual_time_trace[-1] > base.virtual_time_trace[-1]

    def test_pair_tries_one_still_progresses(self):
        instance = random_instance(15, seed=45)
        result = solve(instance, pair_tries=1, max_iterations=2_000, convergence_window=800)
        assert result.best_utility > result.utility_trace[0] - 1e-9


class TestResultIntegrity:
    def test_mask_length_tracks_final_instance(self):
        instance = random_instance(12, seed=46)
        result = solve(instance)
        assert len(result.best_mask) == result.final_instance.num_shards

    def test_valuable_degree_inputs_wired(self):
        instance = random_instance(12, seed=46)
        result = solve(instance)
        mask, final_instance = result.valuable_degree_inputs
        assert final_instance is result.final_instance
        assert np.array_equal(mask, result.best_mask)
