"""Stage 4: final consensus, where the MVCom scheduler plugs in.

The final committee collects shard blocks as member committees finish
their two-phase pipeline, stops listening at the :math:`N_{max}` fraction
(Alg. 1 line 29), asks a *scheduler* which shards to permit, and then runs
its own PBFT round to seal the final block.  The scheduler is pluggable:
the paper's SE algorithm, any baseline, or the trivial "take everything"
policy (the Elastico default MVCom improves upon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.analysis.contracts import sane_instance
from repro.chain.blocks import FinalBlock, RootChain, _hash_payload
from repro.chain.committee import Committee, Crosslinks, calibrated_verify_mean
from repro.chain.fastpath import run_pbft
from repro.chain.params import ChainParams
from repro.core.problem import EpochInstance, MVComConfig
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry

#: A scheduler maps an epoch instance to a boolean selection mask.
SchedulerFn = Callable[[EpochInstance], np.ndarray]


def take_everything(instance: EpochInstance) -> np.ndarray:
    """The unscheduled Elastico behaviour: permit every arrived shard that fits.

    Shards are admitted in arrival (latency) order until the capacity is
    exhausted -- exactly what a scheduler-less final committee would do.
    """
    order = np.argsort(instance.latencies, kind="stable")
    mask = np.zeros(instance.num_shards, dtype=bool)
    weight = 0
    for position in order:
        tx = int(instance.tx_counts[position])
        if weight + tx <= instance.capacity:
            mask[position] = True
            weight += tx
    return mask


@sane_instance
def _instance_from_arrays(
    tx_counts: np.ndarray,
    latencies: np.ndarray,
    shard_ids: np.ndarray,
    config: MVComConfig,
) -> EpochInstance:
    """Array-native :func:`repro.core.problem.build_instance` equivalent.

    Same ``REPRO_CONTRACTS`` validation, no per-shard object hop: the
    crosslink arrays become the instance's arrays directly.
    """
    return EpochInstance(
        tx_counts=tx_counts,
        latencies=latencies,
        config=config,
        shard_ids=shard_ids,
    )


@dataclass
class FinalConsensusResult:
    """Everything stage 4 produced for one epoch."""

    block: FinalBlock
    instance: EpochInstance
    permitted_mask: np.ndarray
    ddl: float
    final_pbft_latency: float
    permitted_txs: int
    permitted_committees: int


class FinalCommittee:
    """The epoch's leader committee (C5 in Fig. 1)."""

    def __init__(
        self,
        committee: Committee,
        params: ChainParams,
        mvcom_config: MVComConfig,
        scheduler: SchedulerFn,
    ) -> None:
        self.committee = committee
        self.params = params
        self.mvcom_config = mvcom_config
        self.scheduler = scheduler

    def run_streaming(
        self,
        crosslinks: Crosslinks,
        chain: RootChain,
        randomness: str,
        rng: np.random.Generator,
        telemetry: NullTelemetry = NULL_TELEMETRY,
    ) -> Optional[FinalConsensusResult]:
        """Execute stage 4: schedule shards, run final PBFT, append the block.

        Applies the N_max listening cutoff to the submitted shards
        (:meth:`repro.chain.committee.Crosslinks.arrival_positions`), builds
        the instance from their arrays directly, and recomputes the
        permitted shard hashes from ``(id, epoch, tx_count)`` -- the
        preimage a :class:`repro.chain.blocks.ShardBlock` hashes -- for the
        permitted positions only.  Returns ``None`` when nothing was
        submitted or the final round stalls.
        """
        if crosslinks.count == 0:
            return None
        keep = crosslinks.arrival_positions(self.mvcom_config.n_max_fraction)
        tx_counts = crosslinks.tx_counts[keep]
        shard_ids = crosslinks.ids[keep]
        instance = _instance_from_arrays(
            tx_counts, crosslinks.latencies[keep], shard_ids, self.mvcom_config
        )
        epoch = self.committee.epoch

        def hashes_for_mask(mask: np.ndarray):
            picked = np.flatnonzero(mask)
            hashes = tuple(
                sorted(
                    _hash_payload("shard", int(shard_ids[i]), epoch, int(tx_counts[i]))
                    for i in picked
                )
            )
            return hashes, int(tx_counts[picked].sum())

        return self._finalize(
            instance, len(keep), hashes_for_mask, chain, randomness, rng, telemetry
        )

    def _finalize(
        self,
        instance: EpochInstance,
        arrived_count: int,
        hashes_for_mask,
        chain: RootChain,
        randomness: str,
        rng: np.random.Generator,
        telemetry: NullTelemetry,
    ) -> Optional[FinalConsensusResult]:
        """Schedule, run the final PBFT round, and append the final block."""
        mask = np.asarray(self.scheduler(instance), dtype=bool)
        if mask.shape != (instance.num_shards,):
            raise ValueError("scheduler returned a mask of the wrong length")
        if not instance.is_capacity_feasible(mask):
            raise ValueError("scheduler violated the final-block capacity")

        outcome = run_pbft(
            self.params.chain_engine,
            members=self.committee.members,
            rng=rng,
            network_params=self.params.network,
            verify_mean_s=calibrated_verify_mean(self.params),
            round_tag=f"epoch{self.committee.epoch}-final",
            telemetry=telemetry,
        )
        if not outcome.committed:
            if telemetry.enabled:
                telemetry.event(
                    "chain.final.stalled",
                    epoch=self.committee.epoch,
                    arrived=arrived_count,
                )
            return None

        hashes, total_txs = hashes_for_mask(mask)
        block = FinalBlock(
            epoch=chain.height,
            parent_hash=chain.head_hash,
            permitted_shards=hashes,
            total_txs=total_txs,
            ddl=instance.ddl,
            randomness=randomness,
        )
        chain.append(block)
        if telemetry.enabled:
            # The mempool-age view of the commit: every permitted shard's
            # TXs waited ddl - latency seconds (Fig. 3's cumulative age).
            telemetry.record_span("chain.final.arrival_window", 0.0, instance.ddl,
                                  epoch=self.committee.epoch, arrived=arrived_count)
            # Tagged per epoch so the metrics aggregator keys an age-percentile
            # series per final-consensus round (SLO: p99 age vs the paper's
            # cumulative-age objective) alongside the cross-epoch aggregate.
            for age in instance.ages[mask]:
                telemetry.observe(
                    "chain.mempool.age_s", float(age), epoch=self.committee.epoch
                )
            telemetry.event(
                "chain.final.commit",
                epoch=self.committee.epoch,
                permitted=int(mask.sum()),
                arrived=arrived_count,
                txs=block.total_txs,
                ddl=instance.ddl,
                pbft_latency=outcome.latency,
            )
        return FinalConsensusResult(
            block=block,
            instance=instance,
            permitted_mask=mask,
            ddl=instance.ddl,
            final_pbft_latency=outcome.latency,
            permitted_txs=block.total_txs,
            permitted_committees=int(mask.sum()),
        )
