"""Multi-epoch scheduling pipeline with cross-epoch latency carry-over.

Section III (Fig. 3) specifies what happens to committees the final
committee refuses: "if C_i was not permitted in epoch j, its two-phase
latency will be updated by reducing the previous DDL in epoch j+1.  Thus, a
refused committee will be more likely to be permitted with a new smaller
two-phase latency at epoch j+1."

:class:`MultiEpochScheduler` runs any per-epoch scheduler across a sequence
of epochs, implementing exactly that rule: each epoch's candidate set is
the fresh arrivals plus last epoch's refused shards re-entering with
``carry_over_latency`` (they keep their transaction payload -- those TXs
are still unconfirmed).  This is the mechanism that bounds how long any
shard can starve, and the multi-epoch bench measures it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from repro.core.problem import EpochInstance, MVComConfig, build_instance, carry_over_latency

#: A per-epoch scheduler: instance -> boolean selection mask.
EpochSchedulerFn = Callable[[EpochInstance], np.ndarray]


@dataclass(frozen=True)
class CarriedShard:
    """A shard queued for (re-)submission, tracking its starvation age."""

    shard_id: int
    tx_count: int
    latency: float
    epochs_waited: int = 0

    @property
    def is_carry_over(self) -> bool:
        """True when this shard was refused in an earlier epoch."""
        return self.epochs_waited > 0


@dataclass
class EpochReport:
    """What one pipeline epoch did."""

    epoch: int
    instance: EpochInstance
    mask: np.ndarray
    utility: float
    throughput_txs: int
    permitted: int
    refused: int
    carried_in: int          # refused shards inherited from the last epoch
    carried_permitted: int   # of which this epoch's schedule admitted
    max_epochs_waited: int


@dataclass
class PipelineResult:
    """Per-epoch reports plus the final unserved backlog."""
    reports: List[EpochReport] = field(default_factory=list)
    leftover: List[CarriedShard] = field(default_factory=list)

    @property
    def total_throughput(self) -> int:
        """Transactions confirmed across all epochs."""
        return sum(report.throughput_txs for report in self.reports)

    @property
    def total_utility(self) -> float:
        """Summed per-epoch utilities."""
        return sum(report.utility for report in self.reports)

    @property
    def worst_starvation(self) -> int:
        """Most epochs any candidate shard has waited."""
        waits = [report.max_epochs_waited for report in self.reports]
        return max(waits) if waits else 0


class MultiEpochScheduler:
    """Drive a per-epoch scheduler across epochs with Fig. 3 carry-over."""

    def __init__(
        self,
        scheduler: EpochSchedulerFn,
        config: MVComConfig,
    ) -> None:
        self.scheduler = scheduler
        self.config = config

    def run(self, epochs: Sequence[Sequence], id_offset: int = 1_000_000) -> PipelineResult:
        """Run every epoch; ``epochs[j]`` is that epoch's fresh shard records.

        Fresh records are duck-typed (``shard_id``, ``tx_count``,
        ``latency``).  Carried shards are re-identified with an offset so
        fresh ids never collide across epochs.
        """
        result = PipelineResult()
        carried: List[CarriedShard] = []
        for epoch_index, fresh in enumerate(epochs):
            candidates = [
                CarriedShard(
                    shard_id=id_offset * (epoch_index + 1) + position,
                    tx_count=int(record.tx_count),
                    latency=float(record.latency),
                )
                for position, record in enumerate(fresh)
            ] + carried
            if not candidates:
                continue
            instance = build_instance(candidates, self.config)
            mask = np.asarray(self.scheduler(instance), dtype=bool)
            if mask.shape != (instance.num_shards,):
                raise ValueError("scheduler returned a mask of the wrong length")
            if not instance.is_capacity_feasible(mask):
                raise ValueError("scheduler violated the final-block capacity")

            refused: List[CarriedShard] = []
            carried_permitted = 0
            for position, shard in enumerate(candidates):
                if mask[position]:
                    if shard.is_carry_over:
                        carried_permitted += 1
                    continue
                refused.append(
                    CarriedShard(
                        shard_id=shard.shard_id,
                        tx_count=shard.tx_count,
                        latency=carry_over_latency(shard.latency, instance.ddl),
                        epochs_waited=shard.epochs_waited + 1,
                    )
                )
            result.reports.append(
                EpochReport(
                    epoch=epoch_index,
                    instance=instance,
                    mask=mask,
                    utility=instance.utility(mask),
                    throughput_txs=instance.weight(mask),
                    permitted=int(mask.sum()),
                    refused=len(refused),
                    carried_in=sum(1 for shard in candidates if shard.is_carry_over),
                    carried_permitted=carried_permitted,
                    max_epochs_waited=max(
                        (shard.epochs_waited for shard in candidates), default=0
                    ),
                )
            )
            carried = refused
        result.leftover = carried
        return result
