"""The 5-stage Elastico epoch orchestrator (Section I).

One :meth:`ElasticoSimulation.run_epoch` call executes:

1. **Committee formation** -- the PoW election race;
2. **Overlay configuration** -- serial identity registration + membership
   gossip; formation latency = committee-fill time + overlay time, which
   is what Fig. 2 measures.  Stages 1-2 run as the vectorized
   :func:`repro.chain.fastpath.formation_kernel` on both chain engines;
   :mod:`repro.chain.pow` and :mod:`repro.chain.overlay` are the scalar
   reference it is byte-identical to;
3. **Intra-committee consensus** -- a PBFT round per committee
   (:func:`repro.chain.committee.run_intra_consensus_streaming`);
4. **Final consensus** -- the final committee schedules shards (MVCom or a
   baseline) and seals the final block (:mod:`repro.chain.final`);
5. **Epoch randomness refreshing** -- commit-reveal seed for the next epoch
   (:mod:`repro.chain.randomness`).

Both chain engines run this same epoch body; ``ChainParams.chain_engine``
only decides how a PBFT round is computed (closed-form kernel or DES).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.blocks import RootChain, ShardBlock
from repro.chain.committee import (
    Committee,
    assign_shard_workload,
    run_intra_consensus_streaming,
)
from repro.chain.fastpath import formation_kernel
from repro.chain.final import (
    FinalCommittee,
    FinalConsensusResult,
    SchedulerFn,
    take_everything,
)
from repro.chain.node import Node, spawn_nodes
from repro.chain.params import ChainParams
from repro.chain.randomness import GENESIS_RANDOMNESS, refresh_randomness
from repro.core.problem import MVComConfig
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import RandomStreams


@dataclass
class EpochOutcome:
    """Everything one epoch produced."""

    epoch: int
    committees: List[Committee]
    shard_blocks: List[ShardBlock]
    final: Optional[FinalConsensusResult]
    randomness: str
    formation_latencies: Dict[int, float] = field(default_factory=dict)
    consensus_latencies: Dict[int, float] = field(default_factory=dict)

    @property
    def two_phase_latencies(self) -> List[float]:
        """Each submitted shard's formation + consensus latency."""
        return [block.two_phase_latency for block in self.shard_blocks]


@dataclass
class StreamingEpochOutcome:
    """What :meth:`ElasticoSimulation.run_epoch_streaming` produced.

    The streaming path never materialises :class:`ShardBlock` objects, so
    this carries counts and the final-consensus result instead of the
    per-shard object list; latency dicts stay available for parity tests
    and Fig. 2-style measurement.
    """

    epoch: int
    num_committees: int
    shards_submitted: int
    final: Optional[FinalConsensusResult]
    randomness: str
    formation_latencies: Dict[int, float] = field(default_factory=dict)
    consensus_latencies: Dict[int, float] = field(default_factory=dict)
    #: stage-3 DES replays of the member committees, by reason
    des_replays: Dict[str, int] = field(default_factory=dict)


class ElasticoSimulation:
    """A multi-epoch Elastico deployment with a pluggable final-committee scheduler."""

    def __init__(
        self,
        params: ChainParams,
        mvcom_config: Optional[MVComConfig] = None,
        scheduler: Optional[SchedulerFn] = None,
        telemetry: NullTelemetry = NULL_TELEMETRY,
    ) -> None:
        self.params = params
        #: Injected hub (rule MV007), threaded into every PBFT round and the
        #: final-consensus stage; each epoch also emits one ``chain.epoch``.
        self.telemetry = telemetry
        self.mvcom_config = mvcom_config or MVComConfig(capacity=1000 * max(params.num_committees, 1))
        self.scheduler = scheduler or take_everything
        self.streams = RandomStreams(params.seed)
        self.nodes: List[Node] = spawn_nodes(
            count=params.num_nodes,
            byzantine_fraction=params.byzantine_fraction,
            rng=self.streams.get("nodes"),
        )
        self.chain = RootChain()
        self.randomness = GENESIS_RANDOMNESS
        self.epoch = 0
        # Per-deployment lookups, fixed across epochs (nodes never churn
        # inside one ElasticoSimulation).
        self._nodes_by_id = {node.node_id: node for node in self.nodes}
        self._solve_scales = np.array(
            [params.pow_mean_solve_s / node.hash_power for node in self.nodes]
        )
        self._node_id_array = np.array([node.node_id for node in self.nodes])

    # ------------------------------------------------------------------ #
    def form_committees(self, rng: np.random.Generator) -> List[Committee]:
        """Stages 1-2: PoW election + overlay configuration.

        Runs the vectorized :func:`repro.chain.fastpath.formation_kernel`
        on both chain engines; it consumes the RNG stream exactly like the
        scalar reference (:mod:`repro.chain.pow`,
        :mod:`repro.chain.overlay`) and produces byte-identical committees.
        """
        params = self.params
        fills, members, overlay_times = formation_kernel(
            nodes=self.nodes,
            num_committees=params.num_committees,
            committee_size=params.committee_size,
            mean_solve_s=params.pow_mean_solve_s,
            epoch_randomness=self.randomness,
            registration_rate=params.identity_registration_rate,
            rng=rng,
            solve_scales=self._solve_scales,
            node_ids=self._node_id_array,
            max_batch_bytes=params.max_batch_bytes,
        )
        nodes_by_id = self._nodes_by_id
        committees = []
        for committee_id, node_ids in sorted(members.items()):
            formation = max(fills[committee_id], overlay_times[committee_id])
            committees.append(
                Committee(
                    committee_id=committee_id,
                    epoch=self.epoch,
                    members=[nodes_by_id[node_id] for node_id in node_ids],
                    formation_latency=float(formation),
                )
            )
        return committees

    def run_epoch(
        self,
        shard_tx_counts: Optional[Sequence[int]] = None,
        mempool=None,
    ) -> EpochOutcome:
        """Execute all five stages once and advance the chain.

        When a :class:`repro.chain.mempool.Mempool` is supplied, shard
        workloads come from Elastico's hash-prefix TX partition and the
        transactions packed into the final block are removed from the pool;
        otherwise ``shard_tx_counts`` (or a synthetic default) is used.
        The epoch runs exactly as :meth:`run_epoch_streaming`; the
        submitted :class:`ShardBlock` list is rebuilt afterwards from the
        committees that committed, in committee order.
        """
        committees, streamed = self._run_epoch(shard_tx_counts, mempool)
        return EpochOutcome(
            epoch=streamed.epoch,
            committees=committees,
            shard_blocks=[
                ShardBlock(
                    committee_id=c.committee_id,
                    epoch=c.epoch,
                    tx_count=c.shard_tx_count,
                    formation_latency=c.formation_latency,
                    consensus_latency=c.consensus_latency,
                )
                for c in committees
                if c.consensus_latency is not None
            ],
            final=streamed.final,
            randomness=streamed.randomness,
            formation_latencies=streamed.formation_latencies,
            consensus_latencies=streamed.consensus_latencies,
        )

    def run_epoch_streaming(
        self,
        shard_tx_counts: Optional[Sequence[int]] = None,
    ) -> StreamingEpochOutcome:
        """The five stages without materialising per-shard objects.

        The same epoch as :meth:`run_epoch` (same RNG consumption, same
        final block hash) on either chain engine, returning counts instead
        of the :class:`ShardBlock` list -- the eth2-scale entry point,
        where ~1024 per-shard Python objects per epoch are pure allocator
        churn.  Mempool-driven workloads stay on :meth:`run_epoch`.
        """
        return self._run_epoch(shard_tx_counts, None)[1]

    def _run_epoch(
        self,
        shard_tx_counts: Optional[Sequence[int]],
        mempool,
    ) -> Tuple[List[Committee], StreamingEpochOutcome]:
        """The epoch body behind :meth:`run_epoch` and :meth:`run_epoch_streaming`.

        Stage 3 hands every committed shard to stage 4 as
        :class:`repro.chain.committee.Crosslinks`, and stage 4 schedules
        from them with :meth:`FinalCommittee.run_streaming`.
        """
        rng = self.streams.fork(f"epoch-{self.epoch}").get("epoch")
        committees = self.form_committees(rng)
        if not committees:
            raise RuntimeError("no committee filled this epoch; raise num_nodes or lower committee_size")

        shard_assignment = None
        if mempool is not None:
            from repro.chain.mempool import assign_to_committees

            shard_assignment = assign_to_committees(mempool, self.params.num_committees)
            shard_tx_counts = [len(shard_assignment[c.committee_id]) for c in committees]
        elif shard_tx_counts is None:
            # Default synthetic workload: ~1.3 blocks of ~1088 TXs per committee.
            shard_tx_counts = rng.poisson(1400, size=len(committees))
        assign_shard_workload(committees, shard_tx_counts)

        # Stage 3: every member committee (all but the final one) runs PBFT
        # and submits its shard (id, s_i, two-phase l_i) in committee order.
        member_committees = committees[:-1] if len(committees) > 1 else committees
        final_seat = committees[-1]
        crosslinks = run_intra_consensus_streaming(
            member_committees, self.params, rng, telemetry=self.telemetry
        )

        # Stage 4: final consensus with the configured scheduler.
        final_result = FinalCommittee(
            committee=final_seat,
            params=self.params,
            mvcom_config=self.mvcom_config,
            scheduler=self.scheduler,
        ).run_streaming(crosslinks, self.chain, self.randomness, rng, telemetry=self.telemetry)

        # Commit: permitted shards' transactions leave the mempool (the
        # final committee first re-checks cross-shard disjointness).
        if mempool is not None and final_result is not None and shard_assignment is not None:
            from repro.chain.mempool import verify_disjoint

            permitted_ids = [
                final_result.instance.shard_ids[i]
                for i in np.flatnonzero(final_result.permitted_mask)
            ]
            permitted_shards = [shard_assignment[cid] for cid in permitted_ids]
            offender = verify_disjoint(permitted_shards)
            if offender is not None:
                raise RuntimeError(f"double-committed transaction {offender}")
            for shard in permitted_shards:
                mempool.remove_committed(shard)

        # Stage 5: refresh the epoch randomness.
        self.randomness = refresh_randomness(
            epoch=self.epoch,
            member_ids=[node.node_id for node in final_seat.members],
            rng=rng,
        )

        outcome = StreamingEpochOutcome(
            epoch=self.epoch,
            num_committees=len(committees),
            shards_submitted=crosslinks.count,
            final=final_result,
            randomness=self.randomness,
            formation_latencies={c.committee_id: c.formation_latency for c in committees},
            consensus_latencies={
                c.committee_id: c.consensus_latency
                for c in committees
                if c.consensus_latency is not None
            },
            des_replays=dict(
                Counter(c.des_replay for c in member_committees if c.des_replay is not None)
            ),
        )
        if self.telemetry.enabled:
            self.telemetry.event(
                "chain.epoch",
                epoch=outcome.epoch,
                committees=len(committees),
                shards_submitted=outcome.shards_submitted,
                shards_permitted=(
                    int(final_result.permitted_mask.sum()) if final_result is not None else 0
                ),
                committed=final_result is not None,
            )
        self.epoch += 1
        return committees, outcome
