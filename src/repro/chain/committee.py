"""Committees: the unit of sharded consensus.

A :class:`Committee` groups the nodes elected into one PoW bucket, tracks
its two-phase latency components, and runs its intra-committee PBFT round.
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
    run_pbft,
)
from repro.chain.params import ChainParams
from repro.chain.network import Network
from repro.chain.pbft import PbftRound
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

    def run_intra_consensus(
        self,
        params: ChainParams,
        rng: np.random.Generator,
        verify_mean_s: Optional[float] = None,
        telemetry: NullTelemetry = NULL_TELEMETRY,
    ) -> Optional[float]:
        """Run stage 3 (PBFT); return the consensus latency, ``None`` on a stall.

        The latency is also stamped on :attr:`consensus_latency`.
        ``verify_mean_s`` defaults to a value calibrated so the expected
        total consensus latency matches ``params.pbft_mean_total_s``: the
        round spends roughly two verify delays (prepare + commit votes) and
        four propagation hops on the critical path.
        """
        if not self.can_reach_quorum:
            return None  # this committee stalls and never submits
        if verify_mean_s is None:
            verify_mean_s = calibrated_verify_mean(params)
        outcome = run_pbft(
            params.chain_engine,
            members=self.members,
            rng=rng,
            network_params=params.network,
            verify_mean_s=verify_mean_s,
            round_tag=f"epoch{self.epoch}-committee{self.committee_id}",
            telemetry=telemetry,
        )
        if not outcome.committed:
            return None
        self.consensus_latency = outcome.latency
        return self.consensus_latency


def _stage3_commit_times(
    committees: Sequence[Committee],
    params: ChainParams,
    rng: np.random.Generator,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> List[Committee]:
    """The shared stage-3 core: chunked batch kernel + DES fallbacks.

    Every committee that reaches quorum on a loss-free network goes
    through one chunked order-statistics kernel call (committee chunks
    sized by ``params.max_batch_bytes``; byte-identical at any chunk
    size) instead of ``K`` per-committee calls.  A committee whose view-0
    primary is Byzantine runs the kernel's VIEW-CHANGE cascade up to its
    first honest primary inside the same call.  The reference DES replays
    only what the closed form cannot cover, afterwards: every committee
    of a lossy network, and committees whose closed-form commit reaches
    the timeout of their view.  Committee-vs-committee draw order differs
    from the serial per-round loop (batch key first, fallbacks second),
    which is fine because all rounds draw independently; with a lossy
    network nothing is batch-drawn -- not even the Philox key -- every
    replay drains its full event queue, and the epoch stays byte-identical
    to the pure DES.

    Stamps ``consensus_latency`` on each committing committee (and
    ``des_replay`` on each replayed one) and returns the committing
    committees in committee order.  Which rounds take the closed form is
    decided by :func:`repro.chain.fastpath.des_fallback_reason` before the
    draw and :meth:`KernelBatch.in_time` after it -- the same rule a
    single :func:`repro.chain.fastpath.run_pbft_round_fast` round follows.
    """
    if verify_mean_s is None:
        verify_mean_s = calibrated_verify_mean(params)
    lossy = params.network.loss_probability > 0.0

    eligible: List[Committee] = []
    fallbacks: List[Tuple[Committee, str]] = []
    for committee in committees:
        if not committee.can_reach_quorum:
            continue  # stalls without consuming randomness, like the serial path
        reason = des_fallback_reason(committee.size, committee.honest_count, params.network)
        if reason is None:
            eligible.append(committee)
        else:
            fallbacks.append((committee, reason))

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
                fallbacks.append((committee, "view-change-timeout"))
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

    for committee, reason in fallbacks:
        committee.des_replay = reason
        round_tag = f"epoch{committee.epoch}-committee{committee.committee_id}"
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
        if lossy:
            # Byte-identity with the pure DES epoch requires draining the
            # whole event queue (the residual tail consumes randomness).
            engine.run()
        else:
            # Timeout replays are distributional-only, so stop at the
            # primary's commit instead of processing the residual event
            # tail (late commit deliveries, stale timers).
            while not outcome.committed and engine.step():
                pass
        if not outcome.committed:
            continue
        committee.consensus_latency = outcome.latency

    return [c for c in committees if c.consensus_latency is not None]


def run_intra_consensus_streaming(
    committees: Sequence[Committee],
    params: ChainParams,
    rng: np.random.Generator,
    sink,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> int:
    """Stage 3 that folds submissions straight into a crosslink sink.

    The ``fastpath`` engine's stage 3 (see :func:`_stage3_commit_times`
    for the kernel/fallback semantics).  Extends ``sink`` -- any object
    with an ``extend(ids, tx_counts, latencies)`` method, canonically
    :class:`repro.chain.final.CrosslinkAggregator` -- with three flat
    arrays in committee order: committee id, ``s_i`` and the two-phase
    ``l_i``.  At eth2 scale this keeps the stage 3 -> 4 hand-off at three
    arrays instead of ~1024 per-shard Python objects.  Returns the number
    of submitted shards.
    """
    committed = _stage3_commit_times(
        committees, params, rng, verify_mean_s=verify_mean_s, telemetry=telemetry
    )
    if committed:
        count = len(committed)
        ids = np.fromiter((c.committee_id for c in committed), dtype=np.int64, count=count)
        tx_counts = np.fromiter(
            (c.shard_tx_count for c in committed), dtype=np.int64, count=count
        )
        latencies = np.fromiter(
            (c.formation_latency + c.consensus_latency for c in committed),
            dtype=np.float64,
            count=count,
        )
        sink.extend(ids, tx_counts, latencies)
    return len(committed)


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
