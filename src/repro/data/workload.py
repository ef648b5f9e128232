"""Epoch workload generation: the glue between the trace and the problem.

:func:`generate_epoch_workload` turns the synthetic Bitcoin trace into the
exact experimental setup of Section VI-A: ``|I_j|`` member-committee shards
with TX counts accumulated from trace blocks and two-phase latencies drawn
from the PoW/PBFT model.  It also prepares the *online* variants where a
subset of committees is present at bootstrap and the rest arrive as JOIN
events (Figs. 9b and 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.dynamics import DynamicSchedule, consecutive_join_schedule
from repro.core.problem import EpochInstance, MVComConfig, build_instance, n_max_cutoff
from repro.data.bitcoin import BitcoinBlock, BitcoinTraceConfig, generate_bitcoin_trace
from repro.data.latency import TwoPhaseLatencyModel
from repro.data.shards import ShardRecord, build_shards
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of one experiment's workload.

    ``num_committees`` is the paper's ``|I_j|``; ``capacity`` is ``Ĉ``.
    """

    num_committees: int = 500
    capacity: int = 500_000
    alpha: float = 1.5
    n_min_fraction: float = 0.5
    n_max_fraction: float = 0.8
    seed: int = 0
    blocks_per_committee: float = 1.3
    trace: BitcoinTraceConfig = field(default_factory=BitcoinTraceConfig)

    def __post_init__(self) -> None:
        if self.num_committees <= 0:
            raise ValueError("num_committees must be positive")
        if self.blocks_per_committee <= 0:
            raise ValueError("blocks_per_committee must be positive")

    def mvcom_config(self) -> MVComConfig:
        """The problem-level config this workload implies."""
        return MVComConfig(
            alpha=self.alpha,
            capacity=self.capacity,
            n_min_fraction=self.n_min_fraction,
            n_max_fraction=self.n_max_fraction,
        )


@dataclass
class EpochWorkload:
    """One epoch's full workload: shards, instance and (optionally) dynamics."""

    shards: List[ShardRecord]
    instance: EpochInstance
    config: WorkloadConfig
    schedule: Optional[DynamicSchedule] = None


def _sample_epoch_blocks(
    blocks: Sequence[BitcoinBlock],
    config: WorkloadConfig,
    rng: np.random.Generator,
) -> List[BitcoinBlock]:
    """Draw this epoch's slice of the trace.

    The paper divides its 1378-block snapshot across epochs and committees;
    with the default ``blocks_per_committee = 1.3`` the resulting mean shard
    size (~1.4K TXs) is the unique scale at which the paper's own parameter
    choices are jointly satisfiable: the bootstrap condition
    :math:`\\sum_i s_i > \\hat C` holds while :math:`N_{min} = 50\\%` of
    committees still fit under :math:`\\hat C = 1000\\,|I_j|` (see DESIGN.md).
    Sampling is without replacement until the trace is exhausted, then with
    replacement.
    """
    wanted = max(config.num_committees, int(round(config.blocks_per_committee * config.num_committees)))
    replace = wanted > len(blocks)
    chosen = rng.choice(len(blocks), size=wanted, replace=replace)
    return [blocks[int(index)] for index in chosen]


def arrived_shards(shards: Sequence[ShardRecord], n_max_fraction: float) -> List[ShardRecord]:
    """Apply Alg. 1's termination rule (line 29, the paper's :math:`N_{max}`).

    The final committee stops listening once :math:`N_{max}` (80% by
    default) of the member committees have submitted, so only the fastest
    :math:`\\lfloor N_{max} |I_j| \\rfloor` committees ever *arrive*; the
    DDL :math:`t_j = \\max_i l_i` is then the slowest arrival's latency
    rather than the full exponential tail.  (Consistency check from the
    paper: Fig. 14 runs :math:`|I_j| = 50` with exactly 23 join events --
    40 arrived committees minus 17 initial ones, and 40 = 80% of 50.)
    """
    if not 0 < n_max_fraction <= 1:
        raise ValueError("n_max_fraction must lie in (0, 1]")
    count = n_max_cutoff(n_max_fraction, len(shards))
    return sorted(shards, key=lambda shard: shard.latency)[:count]


def generate_epoch_workload(
    config: WorkloadConfig,
    blocks: Optional[Sequence[BitcoinBlock]] = None,
    latency_model: Optional[TwoPhaseLatencyModel] = None,
) -> EpochWorkload:
    """Build the static (all committees arrived) workload of Figs. 8 and 10-13.

    "Static" means every committee that will ever arrive (the fastest
    :math:`N_{max}` fraction) is present at bootstrap; the stragglers past
    the :math:`N_{max}` cutoff are excluded per Alg. 1's termination rule.
    """
    streams = RandomStreams(config.seed)
    if blocks is None:
        blocks = generate_bitcoin_trace(config.trace)
    epoch_blocks = _sample_epoch_blocks(blocks, config, streams.get("epoch-blocks"))
    shards = build_shards(
        epoch_blocks,
        num_shards=config.num_committees,
        rng=streams.get("shards"),
        latency_model=latency_model or TwoPhaseLatencyModel(),
    )
    arrived = arrived_shards(shards, config.n_max_fraction)
    instance = build_instance(arrived, config.mvcom_config())
    return EpochWorkload(shards=shards, instance=instance, config=config)


def generate_online_workload(
    config: WorkloadConfig,
    num_initial: int,
    join_start: int,
    join_spacing: int,
    blocks: Optional[Sequence[BitcoinBlock]] = None,
    latency_model: Optional[TwoPhaseLatencyModel] = None,
) -> EpochWorkload:
    """Build the online-arrival workload of Figs. 9b and 14.

    The ``num_initial`` committees with the *smallest* two-phase latency are
    present at bootstrap (they arrived first, by definition); the rest of
    the :math:`N_{max}` arrival window joins as events, in latency order,
    every ``join_spacing`` iterations starting at ``join_start``.
    """
    if not 0 < num_initial <= config.num_committees:
        raise ValueError("num_initial must be within (0, num_committees]")
    base = generate_epoch_workload(config, blocks=blocks, latency_model=latency_model)
    window = arrived_shards(base.shards, config.n_max_fraction)
    if num_initial > len(window):
        raise ValueError(
            f"num_initial={num_initial} exceeds the N_max arrival window of {len(window)}"
        )
    initial, arriving = window[:num_initial], window[num_initial:]

    instance = build_instance(initial, config.mvcom_config())
    schedule = consecutive_join_schedule(
        arrivals=[(shard.shard_id, shard.tx_count, shard.latency) for shard in arriving],
        start_iteration=join_start,
        spacing=join_spacing,
    )
    return EpochWorkload(shards=base.shards, instance=instance, config=config, schedule=schedule)


def multi_epoch_workloads(
    config: WorkloadConfig,
    num_epochs: int,
    blocks: Optional[Sequence[BitcoinBlock]] = None,
    latency_model: Optional[TwoPhaseLatencyModel] = None,
) -> List[EpochWorkload]:
    """Independent epoch workloads (fresh shard grouping and latencies per epoch).

    "For each epoch, those blocks are divided into a different number of
    groups" -- every epoch re-partitions the trace with its own stream.
    """
    if num_epochs <= 0:
        raise ValueError("num_epochs must be positive")
    if blocks is None:
        blocks = generate_bitcoin_trace(config.trace)
    model = latency_model or TwoPhaseLatencyModel()
    workloads = []
    for epoch in range(num_epochs):
        epoch_streams = RandomStreams(config.seed).fork(f"epoch-{epoch}")
        epoch_blocks = _sample_epoch_blocks(blocks, config, epoch_streams.get("epoch-blocks"))
        shards = build_shards(
            epoch_blocks,
            num_shards=config.num_committees,
            rng=epoch_streams.get("shards"),
            latency_model=model,
        )
        instance = build_instance(arrived_shards(shards, config.n_max_fraction), config.mvcom_config())
        workloads.append(EpochWorkload(shards=shards, instance=instance, config=config))
    return workloads
