"""Committees: the unit of sharded consensus.

A :class:`Committee` groups the nodes elected into one PoW bucket and
tracks its two-phase latency components.  :func:`run_intra_consensus_streaming`
runs stage 3 (intra-committee PBFT) for all member committees of an epoch
and hands the submitted shards to stage 4 as :class:`Crosslinks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.node import Node
from repro.chain.fastpath import (
    _pbft_kernel_batch,
    des_fallback_reason,
    emit_kernel_round,
    kernel_chunk_rows,
)
from repro.chain.params import ChainParams
from repro.chain.network import Network
from repro.chain.pbft import PbftRound
from repro.core.problem import n_max_cutoff
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.engine import SimulationEngine


@dataclass
class Committee:
    """One member committee of an epoch."""

    committee_id: int
    epoch: int
    members: List[Node]
    formation_latency: float = 0.0
    consensus_latency: Optional[float] = None
    shard_tx_count: int = 0
    #: why stage 3 replayed this committee on the DES (``None`` = kernel)
    des_replay: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a committee needs members")
        if self.formation_latency < 0:
            raise ValueError("formation_latency must be non-negative")

    @property
    def size(self) -> int:
        """Number of member nodes."""
        return len(self.members)

    @property
    def leader(self) -> Node:
        """The committee's PBFT primary seat (view 0)."""
        return self.members[0]

    @property
    def honest_count(self) -> int:
        """Members that follow the protocol."""
        return sum(1 for node in self.members if node.honest)

    @property
    def byzantine_count(self) -> int:
        """Members that stay silent (crash-equivalent)."""
        return self.size - self.honest_count

    @property
    def can_reach_quorum(self) -> bool:
        """PBFT liveness: at most f = (size-1)//3 silent members."""
        return self.byzantine_count <= (self.size - 1) // 3


@dataclass(frozen=True)
class Crosslinks:
    """The stage 3 -> 4 hand-off of an epoch: every submitted shard.

    Three flat arrays in submission (committee) order -- committee id,
    ``s_i`` and the two-phase ``l_i`` -- which are the features the
    scheduler needs.  At eth2 scale this replaces ~1024 per-shard
    :class:`repro.chain.blocks.ShardBlock` objects;
    :meth:`repro.chain.final.FinalCommittee.run_streaming` builds the
    MVCom instance from the arrays directly.
    """

    ids: np.ndarray
    tx_counts: np.ndarray
    latencies: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.ids) == len(self.tx_counts) == len(self.latencies):
            raise ValueError("ids, tx_counts and latencies must have equal length")

    @property
    def count(self) -> int:
        """Number of submitted shards."""
        return len(self.ids)

    def arrival_positions(self, n_max_fraction: float) -> np.ndarray:
        """Positions kept by the N_max cutoff (Alg. 1 line 29), fastest-first.

        The sort is stable, so equal latencies keep submission order.
        """
        keep = n_max_cutoff(n_max_fraction, self.count)
        return np.argsort(self.latencies, kind="stable")[:keep]


def _stage3_commit_times(
    committees: Sequence[Committee],
    params: ChainParams,
    rng: np.random.Generator,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> List[Committee]:
    """Stage 3 on either chain engine: the batch kernel, then DES replays.

    On ``"fastpath"``, every committee that reaches quorum on a loss-free
    network goes through one chunked order-statistics kernel call (chunks
    sized by ``params.max_batch_bytes``, byte-identical at any chunk
    size); Byzantine view-0 primaries run the kernel's VIEW-CHANGE cascade
    in the same call.  The DES replays, afterwards, what the closed form
    cannot cover: every committee of a lossy network
    (:func:`repro.chain.fastpath.des_fallback_reason`, before the draw)
    and committees whose commit reaches their view's timeout
    (:meth:`KernelBatch.in_time`, after it) -- the rule a single
    :func:`repro.chain.fastpath.run_pbft` round follows.  On ``"des"``,
    every quorate committee is replayed with reason ``None``: the DES is
    the engine, not a fallback, so there is no ``chain.fastpath.fallback``
    event and no ``des_replay`` stamp.

    A replay drains its event queue (the residual tail consumes
    randomness) unless its reason is ``view-change-timeout``, which is
    distributional-only and stops at the primary's commit.  DES-engine
    epochs and lossy epochs -- where the kernel draws nothing, not even
    its key -- are therefore byte-identical to a pure DES run.

    Stamps ``consensus_latency`` on each committing committee (and
    ``des_replay`` on each fallback) and returns the committing
    committees in committee order.
    """
    if verify_mean_s is None:
        verify_mean_s = calibrated_verify_mean(params)
    kernel = params.chain_engine == "fastpath"

    eligible: List[Committee] = []
    replays: List[Tuple[Committee, Optional[str]]] = []
    for committee in committees:
        if not committee.can_reach_quorum:
            continue  # stalls without consuming randomness
        reason = None
        if kernel:
            reason = des_fallback_reason(committee.size, committee.honest_count, params.network)
            if reason is None:
                eligible.append(committee)
                continue
        replays.append((committee, reason))

    if eligible:
        honest = np.array(
            [[node.honest for node in committee.members] for committee in eligible],
            dtype=bool,
        )
        speeds = np.array(
            [[node.verify_speed for node in committee.members] for committee in eligible]
        )
        if telemetry.enabled:
            size = eligible[0].size
            rows = min(len(eligible), kernel_chunk_rows(size, params.max_batch_bytes))
            telemetry.event(
                "chain.fastpath.chunks",
                committees=len(eligible),
                committee_size=size,
                chunk_rows=rows,
                chunks=-(-len(eligible) // rows),
                max_batch_bytes=params.max_batch_bytes,
            )
        batch = _pbft_kernel_batch(
            honest,
            speeds,
            rng,
            params.network,
            verify_mean_s,
            max_batch_bytes=params.max_batch_bytes,
        )
        in_time = batch.in_time()
        for k, committee in enumerate(eligible):
            if not in_time[k]:
                replays.append((committee, "view-change-timeout"))
                continue
            committee.consensus_latency = float(batch.commit[k])
            if telemetry.enabled:
                emit_kernel_round(
                    telemetry,
                    f"epoch{committee.epoch}-committee{committee.committee_id}",
                    batch,
                    k,
                    committee.size,
                )

    for committee, reason in replays:
        round_tag = f"epoch{committee.epoch}-committee{committee.committee_id}"
        if reason is not None:
            committee.des_replay = reason
            if telemetry.enabled:
                telemetry.event("chain.fastpath.fallback", tag=round_tag, reason=reason)
        engine = SimulationEngine(telemetry=telemetry)
        pbft = PbftRound(
            engine=engine,
            network=Network(engine, params.network, rng),
            members=committee.members,
            rng=rng,
            verify_mean_s=verify_mean_s,
            round_tag=round_tag,
            telemetry=telemetry,
        )
        outcome = pbft.outcome
        if reason == "view-change-timeout":
            while not outcome.committed and engine.step():
                pass
        else:
            engine.run()
        if outcome.committed:
            committee.consensus_latency = outcome.latency

    return [c for c in committees if c.consensus_latency is not None]


def run_intra_consensus_streaming(
    committees: Sequence[Committee],
    params: ChainParams,
    rng: np.random.Generator,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> Crosslinks:
    """Stage 3 of an epoch on either chain engine, as :class:`Crosslinks`.

    Runs :func:`_stage3_commit_times` (see it for the kernel / DES
    semantics) and returns the committed shards' committee id, ``s_i``
    and two-phase ``l_i`` in committee order.
    """
    committed = _stage3_commit_times(
        committees, params, rng, verify_mean_s=verify_mean_s, telemetry=telemetry
    )
    count = len(committed)
    return Crosslinks(
        ids=np.fromiter((c.committee_id for c in committed), dtype=np.int64, count=count),
        tx_counts=np.fromiter(
            (c.shard_tx_count for c in committed), dtype=np.int64, count=count
        ),
        latencies=np.fromiter(
            (c.formation_latency + c.consensus_latency for c in committed),
            dtype=np.float64,
            count=count,
        ),
    )


def calibrated_verify_mean(params: ChainParams) -> float:
    """Per-replica verification mean that hits ``pbft_mean_total_s``.

    The primary's critical path is approximately: pre-prepare hop, replica
    verify, prepare quorum hop, replica verify, commit quorum hop -- i.e.
    two verify delays plus three message quorum waits.  Each quorum wait is
    roughly the ~67th-percentile network delay; we budget the network part
    as ``3 * 1.6 * base_delay`` and split the remainder across the two
    verify delays.
    """
    network_budget = 3 * 1.6 * params.network.base_delay
    verify_budget = max(params.pbft_mean_total_s - network_budget, 1e-3)
    return verify_budget / 2.0


def assign_shard_workload(
    committees: Sequence[Committee],
    tx_counts: Sequence[int],
) -> None:
    """Attach per-committee shard TX counts (from :mod:`repro.data`)."""
    if len(tx_counts) < len(committees):
        raise ValueError("need one tx count per committee")
    for committee, tx_count in zip(committees, tx_counts):
        committee.shard_tx_count = int(tx_count)
