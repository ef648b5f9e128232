"""Tests for the MVCom problem model (Section III)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.chain.committee import Crosslinks
from repro.core.problem import EpochInstance, MVComConfig, build_instance, n_max_cutoff
from repro.data.workload import arrived_shards


class TestConfig:
    def test_defaults_match_paper(self):
        config = MVComConfig()
        assert config.alpha == 1.5
        assert config.n_min_fraction == 0.5
        assert config.n_max_fraction == 0.8

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0}, {"alpha": -1}, {"capacity": 0},
        {"n_min_fraction": -0.1}, {"n_min_fraction": 1.1},
        {"n_max_fraction": 0.0}, {"n_max_fraction": 1.5},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MVComConfig(**kwargs)


class TestConstruction:
    def test_basic_shapes(self, tiny_instance):
        assert tiny_instance.num_shards == 6
        assert tiny_instance.capacity == 5_000
        assert tiny_instance.shard_ids == (0, 1, 2, 3, 4, 5)

    def test_ddl_is_max_latency(self, tiny_instance):
        assert tiny_instance.ddl == pytest.approx(900.0)

    def test_explicit_ddl_respected(self, tiny_config):
        instance = EpochInstance([100, 200], [10.0, 20.0], tiny_config, ddl=50.0)
        assert instance.ddl == 50.0

    def test_ddl_below_max_latency_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            EpochInstance([100, 200], [10.0, 20.0], tiny_config, ddl=15.0)

    def test_values_formula(self, tiny_instance):
        """v_i = alpha*s_i - (t_j - l_i) -- eq. (1) folded into eq. (2)."""
        expected = 1.5 * tiny_instance.tx_counts - (900.0 - tiny_instance.latencies)
        assert np.allclose(tiny_instance.values, expected)

    def test_slowest_shard_has_zero_age(self, tiny_instance):
        assert tiny_instance.ages[3] == pytest.approx(0.0)

    def test_mismatched_lengths_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            EpochInstance([1, 2, 3], [1.0, 2.0], tiny_config)

    def test_empty_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            EpochInstance([], [], tiny_config)

    def test_negative_inputs_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            EpochInstance([-1, 2], [1.0, 2.0], tiny_config)
        with pytest.raises(ValueError):
            EpochInstance([1, 2], [-1.0, 2.0], tiny_config)

    def test_duplicate_shard_ids_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            EpochInstance([1, 2], [1.0, 2.0], tiny_config, shard_ids=[7, 7])

    def test_list_mirrors_match_arrays(self, tiny_instance):
        assert tiny_instance.tx_counts_list == tiny_instance.tx_counts.tolist()
        assert tiny_instance.values_list == tiny_instance.values.tolist()


class TestObjective:
    def test_utility_of_empty_selection(self, tiny_instance):
        assert tiny_instance.utility(np.zeros(6, dtype=bool)) == 0.0

    def test_utility_matches_manual_sum(self, tiny_instance):
        mask = np.array([True, False, True, False, False, True])
        expected = tiny_instance.values[[0, 2, 5]].sum()
        assert tiny_instance.utility(mask) == pytest.approx(expected)

    def test_weight_and_throughput_agree(self, tiny_instance):
        mask = np.array([True, True, False, False, False, False])
        assert tiny_instance.weight(mask) == 3_000
        assert tiny_instance.throughput(mask) == 3_000

    def test_cumulative_age(self, tiny_instance):
        mask = np.array([True, False, False, False, False, False])
        assert tiny_instance.cumulative_age(mask) == pytest.approx(300.0)

    def test_wrong_mask_length_rejected(self, tiny_instance):
        with pytest.raises(ValueError):
            tiny_instance.utility(np.zeros(5, dtype=bool))


class TestConstraints:
    def test_capacity_feasibility(self, tiny_instance):
        light = np.array([True, False, False, True, False, False])  # 1800
        heavy = np.array([False, True, False, False, True, True])   # 5700
        assert tiny_instance.is_capacity_feasible(light)
        assert not tiny_instance.is_capacity_feasible(heavy)

    def test_n_min_enforced_by_is_feasible(self, tiny_instance):
        assert tiny_instance.n_min == 2
        single = np.array([True, False, False, False, False, False])
        assert not tiny_instance.is_feasible(single)
        double = np.array([True, False, False, True, False, False])
        assert tiny_instance.is_feasible(double)

    def test_max_feasible_cardinality(self, tiny_instance):
        # lightest prefix: 800+1000+1200=3000, +1500=4500, +2000=6500 > 5000
        assert tiny_instance.max_feasible_cardinality == 4

    def test_n_min_relaxed_when_capacity_binds(self):
        config = MVComConfig(alpha=1.5, capacity=1_000, n_min_fraction=1.0)
        instance = EpochInstance([900, 900, 900], [1.0, 2.0, 3.0], config)
        assert instance.n_min == 1
        assert instance.n_min_relaxed


class TestDynamicsSupport:
    def test_without_removes_shard(self, tiny_instance):
        smaller = tiny_instance.without(3)
        assert smaller.num_shards == 5
        assert 3 not in smaller.shard_ids
        # DDL re-evaluates: shard 3 was the slowest (900); next is 820.
        assert smaller.ddl == pytest.approx(820.0)

    def test_without_unknown_id_raises(self, tiny_instance):
        with pytest.raises(KeyError):
            tiny_instance.without(99)

    def test_with_shard_appends_and_reevaluates_ddl(self, tiny_instance):
        bigger = tiny_instance.with_shard(10, tx_count=500, latency=1_000.0)
        assert bigger.num_shards == 7
        assert bigger.ddl == pytest.approx(1_000.0)
        # Every existing shard aged by the new straggler.
        assert np.all(bigger.ages[:6] >= tiny_instance.ages)

    def test_given_ddl_survives_leave_and_join(self):
        config = MVComConfig(alpha=1.5, capacity=10_000)
        instance = EpochInstance([100, 200, 300], [1.0, 2.0, 5.0], config, ddl=8.0)
        # LEAVE of the slowest shard keeps the given DDL and every value.
        smaller = instance.without(2)
        assert smaller.ddl == 8.0
        assert smaller.values.tolist() == instance.values[:2].tolist()
        # JOIN keeps it while it covers the newcomer, then stretches to it.
        assert instance.with_shard(7, tx_count=50, latency=6.0).ddl == 8.0
        assert instance.with_shard(7, tx_count=50, latency=9.0).ddl == 9.0
        # A derived DDL still re-derives.
        derived = EpochInstance([100, 200, 300], [1.0, 2.0, 5.0], config)
        assert derived.without(2).ddl == 2.0

    def test_with_duplicate_id_rejected(self, tiny_instance):
        with pytest.raises(ValueError):
            tiny_instance.with_shard(2, tx_count=1, latency=1.0)

    def test_position_of(self, tiny_instance):
        assert tiny_instance.position_of(4) == 4
        smaller = tiny_instance.without(0)
        assert smaller.position_of(4) == 3

    def test_carry_over_latency(self, tiny_instance):
        """Fig. 3: refused committee re-enters with l_i - t_j, floored."""
        instance = tiny_instance.with_shard(10, tx_count=100, latency=1_200.0)
        # shard 0 (l=600) finished before the DDL of 1200 -> floored carry-over.
        assert instance.carry_over_latency(0) == 1.0
        # the straggler itself carries max(1200 - 1200, 1) = 1.
        assert instance.carry_over_latency(10) == 1.0

    def test_carry_over_for_refused_straggler(self):
        from repro.core.problem import carry_over_latency

        # A committee with l=500 refused at a DDL of 100 re-enters epoch
        # j+1 having already worked 100 s: carry-over is 400 s.
        assert carry_over_latency(500.0, 100.0) == pytest.approx(400.0)
        # A committee that finished before the DDL carries the floor.
        assert carry_over_latency(80.0, 100.0) == 1.0
        with pytest.raises(ValueError):
            carry_over_latency(80.0, 100.0, floor=0.0)


class TestBuildInstance:
    def test_from_duck_typed_records(self, tiny_config):
        class Record:
            def __init__(self, shard_id, tx_count, latency):
                self.shard_id, self.tx_count, self.latency = shard_id, tx_count, latency

        records = [Record(5, 100, 10.0), Record(9, 200, 20.0)]
        instance = build_instance(records, tiny_config)
        assert instance.shard_ids == (5, 9)
        assert instance.tx_counts.tolist() == [100, 200]

    def test_empty_records_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            build_instance([], tiny_config)


class TestNMaxCutoff:
    """The N_max rule keeps floor(N_max * n) arrivals in the fraction's
    decimal value, not in the float product (0.29 * 100 == 28.999...)."""

    @pytest.mark.parametrize(
        "fraction,arrivals,kept",
        [(0.29, 100, 29), (0.57, 100, 57), (0.7, 90, 63), (0.58, 50, 29)],
    )
    def test_exact_product(self, fraction, arrivals, kept):
        assert n_max_cutoff(fraction, arrivals) == kept
        shards = [SimpleNamespace(latency=float(i + 1)) for i in range(arrivals)]
        assert len(arrived_shards(shards, fraction)) == kept
        crosslinks = Crosslinks(
            ids=np.arange(arrivals),
            tx_counts=np.full(arrivals, 100),
            latencies=np.arange(1.0, arrivals + 1.0),
        )
        assert crosslinks.arrival_positions(fraction).size == kept

    @pytest.mark.parametrize("fraction", [0.8, 1.0])
    def test_paper_fractions_unchanged(self, fraction):
        """The float floor was already exact at 0.8 and 1.0, so no pinned
        trajectory moves."""
        for arrivals in range(10_001):
            legacy = max(1, int(np.floor(fraction * arrivals)))
            assert n_max_cutoff(fraction, arrivals) == legacy

    def test_at_least_one_arrival(self):
        assert n_max_cutoff(0.1, 5) == 1
        assert n_max_cutoff(0.8, 0) == 1
