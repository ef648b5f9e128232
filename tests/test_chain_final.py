"""Tests for stage 4: the final committee and pluggable schedulers."""

import numpy as np
import pytest

from repro.chain.blocks import RootChain
from repro.chain.committee import Committee, Crosslinks
from repro.chain.final import FinalCommittee, take_everything
from repro.chain.node import spawn_nodes
from repro.chain.params import ChainParams
from repro.core.problem import MVComConfig

PARAMS = ChainParams(num_nodes=64, committee_size=8, seed=9)


def make_submissions(count=10, seed=0):
    """Crosslinks of ``count`` submitted shards (ids 0..count-1)."""
    rng = np.random.default_rng(seed)
    tx_counts, latencies = [], []
    for _ in range(count):
        tx_counts.append(int(rng.integers(500, 2_000)))
        formation = float(rng.gamma(4.0, 150.0))
        consensus = float(rng.gamma(4.0, 12.0))
        latencies.append(formation + consensus)
    return Crosslinks(
        ids=np.arange(count, dtype=np.int64),
        tx_counts=np.array(tx_counts, dtype=np.int64),
        latencies=np.array(latencies, dtype=np.float64),
    )


def make_final_committee(scheduler, capacity=8_000):
    nodes = spawn_nodes(8, 0.0, np.random.default_rng(3))
    committee = Committee(committee_id=99, epoch=0, members=nodes)
    return FinalCommittee(
        committee=committee,
        params=PARAMS,
        mvcom_config=MVComConfig(alpha=1.5, capacity=capacity),
        scheduler=scheduler,
    )


class TestArrivalWindow:
    def test_window_is_nmax_fraction(self):
        final = make_final_committee(take_everything)
        result = final.run_streaming(make_submissions(10), RootChain(), "rand",
                                     np.random.default_rng(1))
        assert result.instance.num_shards == 8  # 80% of 10

    def test_window_keeps_fastest(self):
        final = make_final_committee(take_everything)
        submissions = make_submissions(10)
        result = final.run_streaming(submissions, RootChain(), "rand", np.random.default_rng(1))
        window = set(result.instance.shard_ids)
        cut = result.instance.latencies.max()
        outside = [
            latency for sid, latency in zip(submissions.ids, submissions.latencies)
            if int(sid) not in window
        ]
        assert outside and all(latency >= cut for latency in outside)


class TestRun:
    def test_appends_block_to_chain(self):
        final = make_final_committee(take_everything)
        chain = RootChain()
        result = final.run_streaming(make_submissions(10), chain, "rand", np.random.default_rng(1))
        assert result is not None
        assert chain.height == 1
        assert chain.verify()
        assert result.permitted_txs <= 8_000
        assert result.final_pbft_latency > 0

    def test_permitted_shards_recorded_sorted(self):
        final = make_final_committee(take_everything)
        chain = RootChain()
        result = final.run_streaming(make_submissions(10), chain, "rand", np.random.default_rng(1))
        hashes = list(result.block.permitted_shards)
        assert hashes == sorted(hashes)
        assert len(hashes) == result.permitted_committees

    def test_empty_submissions_yield_no_block(self):
        final = make_final_committee(take_everything)
        chain = RootChain()
        rng = np.random.default_rng(1)
        assert final.run_streaming(make_submissions(0), chain, "rand", rng) is None
        assert chain.height == 0
        # Nothing to schedule: the final round never runs, so it draws nothing.
        assert rng.random() == np.random.default_rng(1).random()

    def test_scheduler_overflow_rejected(self):
        final = make_final_committee(lambda inst: np.ones(inst.num_shards, dtype=bool),
                                     capacity=100)
        with pytest.raises(ValueError):
            final.run_streaming(make_submissions(10), RootChain(), "rand",
                                np.random.default_rng(1))

    def test_scheduler_bad_shape_rejected(self):
        final = make_final_committee(lambda inst: np.ones(2, dtype=bool))
        with pytest.raises(ValueError):
            final.run_streaming(make_submissions(10), RootChain(), "rand",
                                np.random.default_rng(1))


class TestTakeEverything:
    def test_prefers_arrival_order(self):
        final = make_final_committee(take_everything, capacity=3_000)
        result = final.run_streaming(make_submissions(10), RootChain(), "rand",
                                     np.random.default_rng(1))
        instance, mask = result.instance, result.permitted_mask
        assert mask.any() and not mask.all()
        assert instance.weight(mask) <= instance.capacity
        # Every unselected shard faster than the slowest selected one did
        # not fit into the room left when it arrived.
        weight = 0
        for position in np.argsort(instance.latencies, kind="stable"):
            tx = int(instance.tx_counts[position])
            if mask[position]:
                weight += tx
            else:
                assert weight + tx > instance.capacity
