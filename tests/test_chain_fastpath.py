"""Parity tests for the closed-form chain fastpath (repro.chain.fastpath).

The DES in repro.chain.pbft/network is the reference executable spec; the
fastpath must be

* **byte-identical** where no approximation exists: formation (stages
  1-2), the pre-draw lossy-network fallback, and the DES itself after the
  RNG-buffer / address-scheme changes;
* **distributionally indistinguishable** where the PBFT kernel block-draws
  its randomness: per-committee-size two-sample KS at alpha=0.01, for
  honest view-0 primaries and for Byzantine ones (view-change cascade);
* **PYTHONHASHSEED-independent** end to end (lint rule MV009's contract),
  checked in a subprocess.
"""

import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.chain.committee import calibrated_verify_mean, run_intra_consensus_streaming
from repro.chain.elastico import ElasticoSimulation
from repro.chain.fastpath import (
    _pbft_kernel_batch,
    formation_kernel,
    view_change_timeout,
    run_pbft,
)
from repro.chain.measurement import linear_growth_check, measure_two_phase_latency
from repro.chain.network import Network
from repro.chain.node import spawn_nodes
from repro.chain.overlay import run_overlay_configuration
from repro.chain.params import ChainParams, NetworkParams
from repro.chain.pbft import run_pbft_round
from repro.chain.pow import committee_fill_times, committee_members, run_pow_election
from repro.metrics.ks import ks_critical_value, ks_statistic
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.sim.engine import SimulationEngine
from repro.sim.rng import spawn_rng

VERIFY_MEAN_S = 22.0


def _members(size, seed, byzantine_fraction=0.0, byzantine_seats=()):
    members = spawn_nodes(
        count=size, byzantine_fraction=byzantine_fraction, rng=spawn_rng(seed, "members")
    )
    for seat in byzantine_seats:
        members[seat].honest = False
    return members


def des_commit_times(size, seeds, byzantine_fraction=0.0, byzantine_seats=()):
    times = []
    for seed in seeds:
        members = _members(size, seed, byzantine_fraction, byzantine_seats)
        outcome = run_pbft_round(
            members=members,
            rng=spawn_rng(seed, "round"),
            network_params=NetworkParams(),
            verify_mean_s=VERIFY_MEAN_S,
        )
        if outcome.committed:
            times.append(outcome.latency)
    return times


def kernel_round(members, seed):
    """A fastpath ``run_pbft`` round that must take the closed form."""
    ring = RingBufferSink(1024)
    outcome = run_pbft(
        "fastpath",
        members=members,
        rng=spawn_rng(seed, "round"),
        network_params=NetworkParams(),
        verify_mean_s=VERIFY_MEAN_S,
        telemetry=Telemetry(sinks=[ring]),
    )
    assert not [r for r in ring.records if r.get("name") == "chain.fastpath.fallback"]
    return outcome


def fastpath_commit_times(size, seeds, byzantine_fraction=0.0, byzantine_seats=()):
    times = []
    for seed in seeds:
        members = _members(size, seed, byzantine_fraction, byzantine_seats)
        outcome = run_pbft(
            "fastpath",
            members=members,
            rng=spawn_rng(seed, "round"),
            network_params=NetworkParams(),
            verify_mean_s=VERIFY_MEAN_S,
        )
        if outcome.committed:
            times.append(outcome.latency)
    return times


class TestKernelDistribution:
    @pytest.mark.parametrize(
        "size,trials",
        [(4, 250), (8, 150), (16, 80)],
    )
    def test_ks_non_rejection_per_size(self, size, trials):
        """Fastpath commit times are distributionally indistinguishable
        from the DES at alpha=0.01, per committee size.  Disjoint seed
        ranges keep the two samples independent."""
        des = des_commit_times(size, range(trials))
        fast = fastpath_commit_times(size, range(10_000, 10_000 + trials))
        assert len(des) == trials and len(fast) == trials
        d_stat = ks_statistic(des, fast)
        assert d_stat < ks_critical_value(len(des), len(fast), alpha=0.01)

    def test_ks_with_byzantine_members(self):
        """Non-primary Byzantine members (silent replicas) still pass KS:
        the kernel masks their votes exactly like the DES ignores them."""
        des = des_commit_times(8, range(120), byzantine_fraction=0.2)
        fast = fastpath_commit_times(8, range(20_000, 20_120), byzantine_fraction=0.2)
        d_stat = ks_statistic(des, fast)
        assert d_stat < ks_critical_value(len(des), len(fast), alpha=0.01)

    def test_stage_times_ordered(self):
        members = spawn_nodes(count=8, byzantine_fraction=0.0, rng=spawn_rng(3, "members"))
        outcome = kernel_round(members, 3)
        assert outcome.committed
        stages = outcome.stage_times
        assert 0.0 == stages["pre-prepare-sent"] <= stages["prepare-quorum"] <= stages["commit-quorum"]
        assert outcome.latency == stages["commit-quorum"]


class TestViewChangeKernel:
    """Committees whose view-0 primary is Byzantine run the kernel's
    VIEW-CHANGE cascade instead of a DES replay; the DES stays the
    reference, so the commit latency must be KS-indistinguishable."""

    @pytest.mark.parametrize(
        "size,seats,trials",
        [(4, (0,), 200), (8, (0,), 150), (16, (0,), 80), (8, (0, 1), 150)],
        ids=["4-view1", "8-view1", "16-view1", "8-view2"],
    )
    def test_ks_non_rejection_view_change(self, size, seats, trials):
        des = des_commit_times(size, range(trials), byzantine_seats=seats)
        fast = fastpath_commit_times(
            size, range(30_000, 30_000 + trials), byzantine_seats=seats
        )
        assert len(des) == trials and len(fast) == trials
        # Every round sits behind at least one view-change timeout.
        timeout = view_change_timeout(NetworkParams(), VERIFY_MEAN_S)
        assert min(des) > timeout and min(fast) > timeout
        d_stat = ks_statistic(des, fast)
        assert d_stat < ks_critical_value(len(des), len(fast), alpha=0.01)

    def test_stage_times_ordered_and_shaped_like_the_des(self):
        members = _members(8, 4, byzantine_seats=(0, 1))
        outcome = kernel_round(members, 4)
        reference = run_pbft_round(
            members=members, rng=spawn_rng(4, "round"),
            network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S,
        )
        assert outcome.committed
        stages = outcome.stage_times
        assert list(stages) == list(reference.stage_times) == [
            "new-view-1", "new-view-2", "pre-prepare-sent", "prepare-quorum", "commit-quorum",
        ]
        timeout = view_change_timeout(NetworkParams(), VERIFY_MEAN_S)
        assert timeout < stages["new-view-1"] < stages["new-view-2"]
        assert stages["new-view-2"] - stages["new-view-1"] > 2 * timeout  # doubled timer
        assert stages["pre-prepare-sent"] == stages["new-view-2"]
        assert stages["pre-prepare-sent"] <= stages["prepare-quorum"] <= stages["commit-quorum"]
        assert outcome.latency == stages["commit-quorum"]

    def test_telemetry_matches_the_des_records(self):
        """The kernel emits the DES's records: one view_change event per
        view and the round span at the committing view."""

        def records(runner):
            ring = RingBufferSink(4096)
            runner(
                members=_members(8, 6, byzantine_seats=(0, 1)),
                rng=spawn_rng(6, "round"),
                network_params=NetworkParams(),
                verify_mean_s=VERIFY_MEAN_S,
                round_tag="vc",
                telemetry=Telemetry(sinks=[ring]),
            )
            return [r for r in ring.records if r.get("name", "").startswith("chain.")]

        fast, des = records(partial(run_pbft, "fastpath")), records(run_pbft_round)
        assert [r["name"] for r in fast] == [r["name"] for r in des] == [
            "chain.pbft.view_change", "chain.pbft.view_change", "chain.pbft.round",
        ]
        for kernel_record, des_record in zip(fast, des):
            assert set(kernel_record) == set(des_record)
        assert [(r["tag"], r["view"]) for r in fast[:2]] == [("vc", 1), ("vc", 2)]
        assert fast[2]["view"] == 2
        assert fast[0]["at"] == fast[2]["stages"]["new-view-1"]

    def test_epoch_replays_only_for_documented_reasons(self):
        """A whole epoch with Byzantine primaries replays nothing for
        them: fallback events only carry the three remaining reasons."""
        ring = RingBufferSink(1 << 16)
        params = ChainParams(
            num_nodes=960, committee_size=8, seed=5, byzantine_fraction=0.3,
            chain_engine="fastpath",
        )
        sim = ElasticoSimulation(params, telemetry=Telemetry(sinks=[ring]))
        committees = sim.form_committees(sim.streams.fork("epoch-0").get("epoch"))
        run_intra_consensus_streaming(
            committees, params, spawn_rng(5, "stage3"), telemetry=sim.telemetry
        )
        view_changed = [
            c for c in committees
            if c.can_reach_quorum and not c.leader.honest and c.des_replay is None
        ]
        assert view_changed, "the seed must exercise Byzantine view-0 primaries"
        spans = {
            r["tag"]: r for r in ring.records
            if r.get("type") == "span" and r.get("name") == "chain.pbft.round"
        }
        for committee in view_changed:
            span = spans[f"epoch{committee.epoch}-committee{committee.committee_id}"]
            assert span["view"] >= 1
            assert "new-view-1" in span["stages"]
        reasons = {
            r["reason"] for r in ring.records if r.get("name") == "chain.fastpath.fallback"
        }
        assert reasons <= {"lossy-network", "no-quorum", "view-change-timeout"}
        assert all(
            c.des_replay in (None, "view-change-timeout") for c in committees
        )


class TestFallbacks:
    def test_lossy_network_falls_back_byte_identical(self):
        seed = 11
        net = NetworkParams(loss_probability=0.05)
        members = spawn_nodes(count=8, byzantine_fraction=0.0, rng=spawn_rng(seed, "members"))
        reference = run_pbft_round(
            members=members, rng=spawn_rng(seed, "round"), network_params=net,
            verify_mean_s=VERIFY_MEAN_S,
        )
        fast = run_pbft(
            "fastpath", members=members, rng=spawn_rng(seed, "round"), network_params=net,
            verify_mean_s=VERIFY_MEAN_S,
        )
        assert fast.committed == reference.committed
        assert fast.commit_time == reference.commit_time
        assert fast.stage_times == reference.stage_times

    def test_timeout_fallback_emits_telemetry_reason(self):
        """Heavy jitter with a tiny verify mean pushes the closed-form
        commit past the view-change timeout; the fastpath must emit the
        fallback event and delegate to the DES (seed pinned to a case
        found by search)."""
        net = NetworkParams(jitter_sigma=3.5)
        members = spawn_nodes(count=4, byzantine_fraction=0.0, rng=spawn_rng(1, "m"))
        ring = RingBufferSink(1024)
        telemetry = Telemetry(sinks=[ring])
        run_pbft(
            "fastpath", members=members, rng=spawn_rng(1, "r"), network_params=net,
            verify_mean_s=0.05, round_tag="timeout-case", telemetry=telemetry,
        )
        fallbacks = [r for r in ring.records if r.get("name") == "chain.fastpath.fallback"]
        assert fallbacks and fallbacks[0]["reason"] == "view-change-timeout"
        assert fallbacks[0]["tag"] == "timeout-case"

    def test_explicit_timeout_invalidates_closed_form(self):
        members = spawn_nodes(count=8, byzantine_fraction=0.0, rng=spawn_rng(5, "members"))
        honest = np.array([[node.honest for node in members]])
        speeds = np.array([[node.verify_speed for node in members]])
        batch = _pbft_kernel_batch(
            honest, speeds, spawn_rng(5, "round"), NetworkParams(), VERIFY_MEAN_S,
            view_change_timeout_s=1e-6,
        )
        assert not batch.in_time()[0]
        default = _pbft_kernel_batch(
            honest, speeds, spawn_rng(5, "round"), NetworkParams(), VERIFY_MEAN_S
        )
        assert default.in_time()[0]

    def test_too_small_committee_rejected(self):
        members = spawn_nodes(count=3, byzantine_fraction=0.0, rng=spawn_rng(0, "members"))
        with pytest.raises(ValueError):
            run_pbft("fastpath", members, spawn_rng(0, "round"), NetworkParams(), VERIFY_MEAN_S)

    def test_run_pbft_dispatch(self):
        members = spawn_nodes(count=4, byzantine_fraction=0.0, rng=spawn_rng(2, "members"))
        des = run_pbft(
            "des", members=members, rng=spawn_rng(2, "round"),
            network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S,
        )
        reference = run_pbft_round(
            members=members, rng=spawn_rng(2, "round"),
            network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S,
        )
        assert des.commit_time == reference.commit_time


class TestBatchedRounds:
    """Stage 3 on the fastpath engine runs one (K, c, c) kernel call per
    epoch (run_intra_consensus_streaming) plus DES replays for the
    ineligible committees."""

    def test_lossy_epoch_byte_identical_to_des(self):
        """With a lossy network the kernel draws nothing, every committee
        replays under the DES in order, and the whole epoch -- consensus
        latencies included -- must equal the pure DES epoch exactly."""
        params = ChainParams(
            num_nodes=240,
            committee_size=8,
            seed=3,
            network=NetworkParams(loss_probability=0.05),
        )
        des = ElasticoSimulation(replace(params, chain_engine="des")).run_epoch()
        fast = ElasticoSimulation(replace(params, chain_engine="fastpath")).run_epoch()
        assert des.formation_latencies == fast.formation_latencies
        assert des.consensus_latencies == fast.consensus_latencies
        assert des.randomness == fast.randomness

    def test_batch_and_serial_commit_the_same_committees(self):
        """The batch must submit exactly the committees that per-committee
        DES rounds commit (values differ: independent draws)."""
        params = ChainParams(num_nodes=480, committee_size=8, seed=11, chain_engine="fastpath")
        sim_a = ElasticoSimulation(params)
        sim_b = ElasticoSimulation(params)
        rng_a = sim_a.streams.fork("epoch-0").get("epoch")
        rng_b = sim_b.streams.fork("epoch-0").get("epoch")
        committees_a = sim_a.form_committees(rng_a)
        committees_b = sim_b.form_committees(rng_b)
        serial = [
            c for c in committees_a
            if c.can_reach_quorum
            and run_pbft_round(
                members=c.members, rng=rng_a, network_params=params.network,
                verify_mean_s=calibrated_verify_mean(params),
            ).committed
        ]
        batch = run_intra_consensus_streaming(committees_b, params, rng_b)
        assert batch.count == len(serial)
        assert batch.ids.tolist() == [c.committee_id for c in serial]
        assert batch.tx_counts.tolist() == [c.shard_tx_count for c in serial]
        committed = [c for c in committees_b if c.consensus_latency is not None]
        for a, b, latency in zip(serial, committed, batch.latencies):
            assert a.formation_latency == b.formation_latency
            assert b.consensus_latency > 0.0
            assert latency == b.formation_latency + b.consensus_latency

    def test_batched_consensus_ks_vs_des_measurement(self):
        """End-to-end Fig. 2 consensus samples from the batched fastpath
        vs the DES at one size: KS must not reject at alpha=0.01."""
        base = ChainParams(num_nodes=100, committee_size=8, seed=7)
        samples = {}
        for engine in ("des", "fastpath"):
            (m,) = measure_two_phase_latency(
                replace(base, chain_engine=engine), [400], epochs_per_size=3
            )
            samples[engine] = m.consensus_latencies
        d_stat = ks_statistic(samples["des"], samples["fastpath"])
        assert d_stat < ks_critical_value(
            len(samples["des"]), len(samples["fastpath"]), alpha=0.01
        )


#: Per-``(type, name)`` record counts of the two DES-engine epochs in
#: :class:`TestEngineTelemetry`, recorded before the DES engine ran
#: through the shared stage-3 body; the refactor must not move them.
DES_EPOCH_RECORDS = {
    ("event", "chain.epoch"): 2,
    ("event", "chain.final.commit"): 2,
    ("event", "chain.pbft.view_change"): 8,
    ("event", "sim.run"): 23,
    ("hist", "chain.mempool.age_s"): 16,
    ("span", "chain.final.arrival_window"): 2,
    ("span", "chain.pbft.round"): 23,
}


class TestEngineTelemetry:
    """Both engines share one stage-3 body; what each reports must not
    depend on that: the DES engine is never a "fallback", and a lossy
    fastpath epoch replays only for the lossy network."""

    def _epochs(self, params, epochs=2):
        ring = RingBufferSink(1 << 16)
        sim = ElasticoSimulation(params, telemetry=Telemetry(sinks=[ring]))
        replays = [sim.run_epoch_streaming().des_replays for _ in range(epochs)]
        return replays, ring.records

    def test_des_engine_telemetry_unchanged(self):
        params = ChainParams(
            num_nodes=240, committee_size=8, seed=11, byzantine_fraction=0.3,
            chain_engine="des",
        )
        replays, records = self._epochs(params)
        assert replays == [{}, {}]
        counts = Counter((r["type"], r["name"]) for r in records)
        assert dict(counts) == DES_EPOCH_RECORDS
        assert not [name for _, name in counts if name.startswith("chain.fastpath.")]

    def test_lossy_fastpath_epoch_replays_only_for_loss(self):
        params = ChainParams(
            num_nodes=240, committee_size=8, seed=3,
            network=NetworkParams(loss_probability=0.05), chain_engine="fastpath",
        )
        replays, records = self._epochs(params)
        assert replays == [{"lossy-network": 17}, {"lossy-network": 13}]
        fastpath_records = Counter(
            (r["name"], r.get("reason"), r["tag"].endswith("-final")) for r in records
            if r["name"].startswith("chain.fastpath.")
        )
        # No kernel call at all (no chunk plan): one fallback per stage-3
        # replay plus each epoch's final-committee round.
        assert fastpath_records == {
            ("chain.fastpath.fallback", "lossy-network", False): 17 + 13,
            ("chain.fastpath.fallback", "lossy-network", True): 2,
        }


class TestFormationByteIdentity:
    def test_formation_kernel_matches_reference(self):
        """Stages 1-2 have no event interleaving: the kernel behind
        ``form_committees`` must match the scalar PoW/overlay reference
        float-for-float and leave the RNG stream in the same state."""
        for seed, byzantine_fraction in ((5, 0.1), (9, 0.3)):
            params = ChainParams(
                num_nodes=240, committee_size=8, seed=seed,
                byzantine_fraction=byzantine_fraction,
            )
            sim = ElasticoSimulation(params)
            rng_kernel = sim.streams.fork("epoch-0").get("epoch")
            rng_reference = ElasticoSimulation(params).streams.fork("epoch-0").get("epoch")
            committees = sim.form_committees(rng_kernel)

            solutions = run_pow_election(
                nodes=sim.nodes,
                num_committees=params.num_committees,
                mean_solve_s=params.pow_mean_solve_s,
                epoch_randomness=sim.randomness,
                rng=rng_reference,
            )
            fills = committee_fill_times(solutions, params.num_committees, params.committee_size)
            members = committee_members(solutions, params.num_committees, params.committee_size)
            overlay = run_overlay_configuration(
                solutions=solutions,
                members=members,
                registration_rate=params.identity_registration_rate,
                rng=rng_reference,
            ).committee_overlay_time

            assert [c.committee_id for c in committees] == sorted(members)
            for committee in committees:
                cid = committee.committee_id
                assert committee.formation_latency == max(fills[cid], overlay[cid])
                assert [n.node_id for n in committee.members] == members[cid]
            assert rng_kernel.random() == rng_reference.random()

    def test_epoch_formation_latencies_identical(self):
        params = ChainParams(num_nodes=240, committee_size=8, seed=9)
        des = ElasticoSimulation(replace(params, chain_engine="des")).run_epoch()
        fast = ElasticoSimulation(replace(params, chain_engine="fastpath")).run_epoch()
        assert des.formation_latencies == fast.formation_latencies

    def test_formation_kernel_validates_inputs(self):
        nodes = spawn_nodes(count=20, byzantine_fraction=0.0, rng=spawn_rng(0, "n"))
        with pytest.raises(ValueError):
            formation_kernel(nodes, 0, 4, 600.0, "genesis", 0.5, spawn_rng(0, "r"))
        with pytest.raises(ValueError):
            formation_kernel(nodes, 2, 4, -1.0, "genesis", 0.5, spawn_rng(0, "r"))
        with pytest.raises(ValueError):
            formation_kernel(nodes, 2, 4, 600.0, "genesis", 0.0, spawn_rng(0, "r"))


class TestNetworkDeterminism:
    def test_buffered_and_unbuffered_broadcast_identical(self):
        """The prefilled delay buffer must preserve draw order exactly:
        a buffered broadcast delivers at the same virtual times as the
        scalar-draw reference."""

        def deliveries(buffered):
            engine = SimulationEngine()
            network = Network(engine, NetworkParams(), spawn_rng(13, "net"), buffered=buffered)
            seen = []
            for node_id in range(6):
                network.register(
                    node_id,
                    lambda msg, _nid=node_id: seen.append((engine.now, _nid, msg.kind)),
                )
            network.broadcast(0, range(6), "prepare", payload=0)
            network.broadcast(1, range(6), "commit", payload=1)
            engine.run()
            return seen

        assert deliveries(buffered=True) == deliveries(buffered=False)

    def test_claim_address_sequential(self):
        engine = SimulationEngine()
        network = Network(engine, NetworkParams(), spawn_rng(0, "net"))
        assert [network.claim_address() for _ in range(4)] == [0, 1, 2, 3]

    def test_des_round_reproducible_within_process(self):
        members = spawn_nodes(count=8, byzantine_fraction=0.1, rng=spawn_rng(21, "members"))
        first = run_pbft_round(
            members=members, rng=spawn_rng(21, "round"),
            network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S,
        )
        second = run_pbft_round(
            members=members, rng=spawn_rng(21, "round"),
            network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S,
        )
        assert first.commit_time == second.commit_time
        assert first.stage_times == second.stage_times


_HASHSEED_PROBE = textwrap.dedent(
    """
    import json
    from repro.chain.elastico import ElasticoSimulation
    from repro.chain.node import spawn_nodes
    from repro.chain.params import ChainParams, NetworkParams
    from repro.chain.pbft import run_pbft_round
    from repro.sim.rng import spawn_rng

    members = spawn_nodes(count=8, byzantine_fraction=0.1, rng=spawn_rng(3, "members"))
    outcome = run_pbft_round(
        members=members, rng=spawn_rng(3, "round"),
        network_params=NetworkParams(), verify_mean_s=22.0,
    )
    epoch = ElasticoSimulation(ChainParams(num_nodes=160, committee_size=8, seed=3)).run_epoch()
    print(json.dumps({
        "commit": outcome.commit_time,
        "stages": outcome.stage_times,
        "formation": sorted(epoch.formation_latencies.items()),
        "consensus": sorted(epoch.consensus_latencies.items()),
    }))
    """
)


class TestHashSeedIndependence:
    def test_des_identical_across_hash_seeds(self):
        """The DES must produce bit-identical latencies under different
        PYTHONHASHSEED values (the old builtin-hash address scheme did
        not; lint rule MV009 keeps it that way)."""
        outputs = []
        for hash_seed in ("1", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _HASHSEED_PROBE],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["commit"] > 0


class TestMeasurementFastpath:
    def test_linear_growth_on_fastpath(self):
        """Fig. 2a's claim (near-linear formation growth) holds on the
        fastpath engine too -- formation is byte-identical to the DES, so
        the fit comes out the same shape."""
        params = ChainParams(num_nodes=100, committee_size=8, seed=5, chain_engine="fastpath")
        measurements = measure_two_phase_latency(params, (100, 250, 400, 700), epochs_per_size=1)
        fit = linear_growth_check(measurements)
        assert fit["slope"] > 0
        assert fit["r_squared"] > 0.6  # same claim/threshold as the DES test

    def test_formation_matches_des_measurement(self):
        params = ChainParams(num_nodes=100, committee_size=8, seed=1)
        des = measure_two_phase_latency(
            replace(params, chain_engine="des"), (100, 200), epochs_per_size=1
        )
        fast = measure_two_phase_latency(
            replace(params, chain_engine="fastpath"), (100, 200), epochs_per_size=1
        )
        for a, b in zip(des, fast):
            assert a.formation_latencies == b.formation_latencies

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ChainParams(chain_engine="warp")
