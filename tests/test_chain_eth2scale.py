"""Eth2-scale path: chunked kernels, streaming crosslinks, and the bench CLI.

The tentpole claims under test:

* the chunked PBFT and formation kernels are **byte-identical** to their
  unchunked forms at every chunk size (including one-committee chunks and
  budgets larger than the whole batch), and leave the calling RNG in the
  same state;
* chunking bounds peak scratch memory (tracemalloc, which tracks numpy's
  allocator);
* the streaming epoch (:meth:`ElasticoSimulation.run_epoch_streaming` +
  :class:`CrosslinkAggregator`) replays the object epoch byte for byte;
* the ``eth2scale`` preset / CLI verb exist and run at toy scale.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro.chain import fastpath
from repro.chain.elastico import ElasticoSimulation
from repro.chain.fastpath import (
    _pbft_kernel_batch,
    formation_kernel,
    kernel_bytes_per_committee,
    kernel_chunk_rows,
)
from repro.chain.final import CrosslinkAggregator
from repro.chain.params import ChainParams, NetworkParams
from repro.harness.presets import PRESETS
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.sim.rng import spawn_rng


def _committee_stack(num_committees, size, seed=0, view_changes=False):
    rng = spawn_rng(seed, "stack")
    honest = rng.random((num_committees, size)) > 0.1
    honest[:, 0] = True  # an honest view-0 primary: no view change
    if view_changes:
        # Byzantine primaries at views 0 (every 2nd) and 1 (every 3rd);
        # the rest of the committee is honest, so quorum always holds.
        honest[:, :] = True
        honest[::2, 0] = False
        honest[::3, 1] = False
    speeds = 0.5 + rng.random((num_committees, size))
    return honest, speeds


def _run_kernel(honest, speeds, max_batch_bytes):
    rng = spawn_rng(7, "round")
    batch = _pbft_kernel_batch(
        honest, speeds, rng, NetworkParams(), 22.0, max_batch_bytes=max_batch_bytes
    )
    # The end-state probe: chunking must not move the caller's stream.
    return batch, rng.random()


class TestChunkedKernelByteIdentity:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 5, 13, 64])
    def test_pbft_kernel_chunking_is_byte_identical(self, chunk_rows):
        """Any chunk size (1 row ... > K rows) replays the unchunked bytes."""
        honest, speeds = _committee_stack(13, 8)
        budget = chunk_rows * kernel_bytes_per_committee(8)
        assert kernel_chunk_rows(8, budget) == chunk_rows
        base = _run_kernel(honest, speeds, None)
        chunked = _run_kernel(honest, speeds, budget)
        np.testing.assert_array_equal(chunked[0].commit, base[0].commit)
        np.testing.assert_array_equal(chunked[0].prepared, base[0].prepared)
        assert chunked[1] == base[1]

    @pytest.mark.parametrize("chunk_rows", [1, 2, 5, 13, 64])
    def test_view_change_kernel_chunking_is_byte_identical(self, chunk_rows):
        """Byzantine-primary committees (views 1 and 2) in the same stack:
        the VIEW-CHANGE rounds replay the unchunked bytes at any chunk size."""
        honest, speeds = _committee_stack(13, 8, view_changes=True)
        budget = chunk_rows * kernel_bytes_per_committee(8)
        base, base_probe = _run_kernel(honest, speeds, None)
        chunked, probe = _run_kernel(honest, speeds, budget)
        assert set(base.views.tolist()) == {0, 1, 2}
        for field in base._fields:
            np.testing.assert_array_equal(getattr(chunked, field), getattr(base, field))
        assert probe == base_probe

    def test_formation_kernel_chunking_is_byte_identical(self):
        from repro.chain.node import spawn_nodes

        nodes = spawn_nodes(
            count=480, byzantine_fraction=0.1, rng=spawn_rng(3, "nodes")
        )
        base = None
        for budget in (None, 10**9, 96 * 11, 96, 1):
            rng = spawn_rng(3, "form")
            result = formation_kernel(
                nodes, 60, 8, 600.0, "genesis", 0.5, rng, max_batch_bytes=budget
            )
            probe = rng.random()
            if base is None:
                base = (result, probe)
                continue
            assert probe == base[1]
            assert result == base[0]

    def test_chunk_rows_floor_and_validation(self):
        assert kernel_chunk_rows(8, 1) == 1  # floor: never zero rows
        assert kernel_chunk_rows(8, None) == 2**31  # None disables chunking
        with pytest.raises(ValueError, match="max_batch_bytes"):
            ChainParams(max_batch_bytes=0)
        with pytest.raises(ValueError, match="max_batch_bytes"):
            ChainParams(max_batch_bytes=-1)

    def test_chunking_bounds_peak_scratch(self):
        """A small budget caps live scratch well below the monolithic peak."""
        honest, speeds = _committee_stack(256, 64)
        budget = 23 * kernel_bytes_per_committee(64)  # ~4 MiB of scratch

        def peak(max_batch_bytes):
            tracemalloc.start()
            tracemalloc.reset_peak()
            _run_kernel(honest, speeds, max_batch_bytes)
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak_bytes

        unchunked = peak(None)
        chunked = peak(budget)
        assert chunked < unchunked / 3, (
            f"chunked peak {chunked / 2**20:.1f} MiB vs "
            f"unchunked {unchunked / 2**20:.1f} MiB"
        )


class TestStreamingEpoch:
    def _params(self, **overrides):
        defaults = dict(
            num_nodes=480, committee_size=8, seed=11, chain_engine="fastpath"
        )
        defaults.update(overrides)
        return ChainParams(**defaults)

    def test_streaming_epoch_matches_object_epoch(self):
        object_sim = ElasticoSimulation(self._params())
        streaming_sim = ElasticoSimulation(self._params())
        outcome = object_sim.run_epoch()
        streamed = streaming_sim.run_epoch_streaming()

        assert streamed.shards_submitted == len(outcome.shard_blocks)
        assert streamed.randomness == outcome.randomness
        assert streamed.consensus_latencies == outcome.consensus_latencies
        assert outcome.final is not None and streamed.final is not None
        assert streamed.final.block.block_hash == outcome.final.block.block_hash
        assert streamed.final.block.permitted_shards == outcome.final.block.permitted_shards
        np.testing.assert_array_equal(
            streamed.final.permitted_mask, outcome.final.permitted_mask
        )
        assert streamed.final.instance.shard_ids == outcome.final.instance.shard_ids

    def test_streaming_epoch_is_chunk_invariant(self):
        base = ElasticoSimulation(self._params()).run_epoch_streaming()
        tiny = ElasticoSimulation(
            self._params(max_batch_bytes=4096)
        ).run_epoch_streaming()
        assert tiny.final.block.block_hash == base.final.block.block_hash
        assert tiny.consensus_latencies == base.consensus_latencies

    def test_streaming_requires_fastpath(self):
        sim = ElasticoSimulation(self._params(chain_engine="des"))
        with pytest.raises(ValueError, match="fastpath"):
            sim.run_epoch_streaming()

    def test_chunks_telemetry_event(self):
        ring = RingBufferSink(4096)
        telemetry = Telemetry(sinks=[ring])
        params = self._params(max_batch_bytes=3 * kernel_bytes_per_committee(8))
        sim = ElasticoSimulation(params, telemetry=telemetry)
        sim.run_epoch_streaming()
        chunk_events = [
            r for r in ring.records if r.get("name") == "chain.fastpath.chunks"
        ]
        assert chunk_events, "the batched stage-3 path must emit its chunk plan"
        event = chunk_events[0]
        assert event["committee_size"] == 8
        assert event["chunk_rows"] == 3
        assert event["max_batch_bytes"] == params.max_batch_bytes
        assert event["chunks"] == -(-event["committees"] // event["chunk_rows"])


class TestCrosslinkAggregator:
    def test_add_extend_and_views(self):
        aggregator = CrosslinkAggregator(capacity_hint=2)
        aggregator.add(5, 1400, 600.5)
        aggregator.extend(
            np.array([7, 9]), np.array([100, 200]), np.array([700.0, 650.0])
        )
        assert aggregator.count == 3
        np.testing.assert_array_equal(aggregator.ids, [5, 7, 9])
        np.testing.assert_array_equal(aggregator.tx_counts, [1400, 100, 200])
        # N_max cutoff keeps the fastest arrivals, stable order.
        np.testing.assert_array_equal(aggregator.arrival_positions(0.8), [0, 2])

    def test_extend_validates_lengths(self):
        aggregator = CrosslinkAggregator()
        with pytest.raises(ValueError, match="equal length"):
            aggregator.extend(np.array([1]), np.array([1, 2]), np.array([1.0]))

    def test_growth_beyond_hint(self):
        aggregator = CrosslinkAggregator(capacity_hint=1)
        for i in range(100):
            aggregator.add(i, i, float(i))
        np.testing.assert_array_equal(aggregator.ids, np.arange(100))


class TestNicGeometryCache:
    def test_lru_eviction_bounds_the_cache(self):
        fastpath._NIC_GEOMETRY.clear()
        limit = fastpath._NIC_GEOMETRY_MAX_ENTRIES
        for c in range(4, 4 + limit + 5):
            fastpath._nic_geometry(c, 0.002)
        assert len(fastpath._NIC_GEOMETRY) == limit
        # The oldest entries were evicted, the newest survive.
        assert (4, 0.002) not in fastpath._NIC_GEOMETRY
        assert (4 + limit + 4, 0.002) in fastpath._NIC_GEOMETRY

    def test_lru_hit_refreshes_recency(self):
        fastpath._NIC_GEOMETRY.clear()
        limit = fastpath._NIC_GEOMETRY_MAX_ENTRIES
        for c in range(4, 4 + limit):
            fastpath._nic_geometry(c, 0.002)
        fastpath._nic_geometry(4, 0.002)  # touch the oldest entry
        fastpath._nic_geometry(4 + limit, 0.002)  # force one eviction
        assert (4, 0.002) in fastpath._NIC_GEOMETRY
        assert (5, 0.002) not in fastpath._NIC_GEOMETRY


class TestEth2ScaleHarness:
    def test_preset_exists_with_beacon_shape(self):
        preset = PRESETS["eth2scale"]
        assert preset.extras["committee_size"] == 2**7
        assert max(preset.extras["network_sizes"]) == 2**10 * 2**7
        assert preset.num_committees == 2**10

    def test_runner_rejects_descending_sizes(self):
        from repro.harness.eth2scale import run_eth2scale

        with pytest.raises(ValueError, match="ascending"):
            run_eth2scale(network_sizes=(1024, 512), out_path=None)

    def test_cli_smoke(self, tmp_path, capsys):
        from repro.harness.cli import main

        out = tmp_path / "bench.json"
        code = main(
            [
                "eth2scale",
                "--network-sizes", "512",
                "--committee-size", "8",
                "--iterations", "200",
                "--gamma", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["figure"] == "eth2scale"
        (point,) = record["points"]
        assert point["nodes"] == 512
        assert point["shards_submitted"] > 0
        assert point["se_wall_s"] <= point["epoch_wall_s"]
        assert "eth2scale" in capsys.readouterr().out
