"""The benchmark's three workloads.

Each workload builds its inputs from the run seed outside the timed
region, runs *blocks* of operations through the program's public API, and
returns every decision the program made so :func:`check_decision` can
verify it.  The shapes (and why each workload exists) are documented in
``perfbench/README.md``.

A block is a fixed op set built from ``(run seed, block index)``; a run
executes at least ``min_blocks`` of them, and more while the next one is
projected to end within ``--seconds``:

``serve-warm``
    one ``run_serve`` call of ``epochs`` warm-chained epochs; an op is one
    served decision (``EpochRow``).
``eth2-epoch``
    one pass of ``epochs`` streaming epochs over the fixed deployment; an
    op is one epoch.
``online-churn``
    one ``StochasticExploration.solve`` with in-solve JOIN/LEAVE events; an
    op is one solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.chain import elastico
from repro.chain.params import ChainParams
from repro.core.bounds import lagrangian_bound
from repro.core.dynamics import CommitteeEvent, DynamicSchedule, EventKind
from repro.core.problem import EpochInstance, MVComConfig
from repro.core.se import SEConfig, StochasticExploration
from repro.data.bitcoin import BitcoinTraceConfig, generate_bitcoin_trace
from repro.data.workload import WorkloadConfig, generate_online_workload
from repro.harness import serve

#: ``call(fn, *args, **kwargs) -> (result, wall_s)``: the run loop's timer.
Call = Callable[..., tuple]


def block_seed(seed: int, workload: str, index: int) -> int:
    """Seed of block ``index``, derived from the run seed by the benchmark."""
    tag = sum(ord(char) << (8 * (k % 4)) for k, char in enumerate(workload))
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


@dataclass
class Decision:
    """One scheduling decision the program returned, as reported."""

    instance: EpochInstance
    mask: np.ndarray
    utility: float
    failures: List[str] = field(default_factory=list)


@dataclass
class Block:
    """What one block produced."""

    wall_s: float
    latencies: List[float]
    decisions: List[Decision]
    failures: List[str] = field(default_factory=list)


def check_decision(decision: Decision) -> List[str]:
    """Correctness gate on one decision: const. (3)/(4) and the utility.

    The reported utility comes from incrementally maintained caches, so it
    may differ from a fresh sum over the mask in the last bits; anything
    beyond ``rel_tol=1e-9`` is a real mismatch.
    """
    failures = list(decision.failures)
    instance = decision.instance
    mask = np.asarray(decision.mask, dtype=bool)
    if mask.shape != (instance.num_shards,):
        return failures + [f"mask has shape {mask.shape} for {instance.num_shards} shards"]
    if not instance.is_feasible(mask):
        failures.append(
            f"infeasible mask: {int(mask.sum())} >= n_min {instance.n_min} and "
            f"weight {instance.weight(mask)} <= capacity {instance.capacity} do not both hold"
        )
    recomputed = instance.utility(mask)
    if not math.isclose(decision.utility, recomputed, rel_tol=1e-9, abs_tol=1e-6):
        failures.append(f"reported utility {decision.utility!r} != U(mask) {recomputed!r}")
    return failures


def quality(decision: Decision) -> Dict[str, float]:
    """Achieved utility against the Lagrangian upper bound.

    ``certify`` is not used: its fractional-knapsack bound returns 0.0 on
    serve instances (zero-tx shards sort first at density +inf and stop its
    greedy loop), which would grade every serve decision optimal.
    """
    instance = decision.instance
    bound = lagrangian_bound(instance)
    achieved = instance.utility(np.asarray(decision.mask, dtype=bool))
    return {
        "gap": (bound - achieved) / (instance.alpha * instance.capacity),
        "ratio": achieved / bound,
    }


# ---------------------------------------------------------------------- #
# serve-warm
# ---------------------------------------------------------------------- #
class ServeWarm:
    """``run_serve`` in warm mode with the default telemetry hub."""

    name = "serve-warm"

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.shape = dict(num_committees=20, gamma=3, max_iterations=60,
                              convergence_window=20)
            self.epochs, self.min_blocks, self.trace_blocks = 4, 2, 1
        else:
            self.shape = dict(num_committees=100, gamma=25, max_iterations=500,
                              convergence_window=100)
            self.epochs, self.min_blocks, self.trace_blocks = 50, 3, 1
        self.seed = 0

    def setup(self, seed: int) -> None:
        self.seed = seed
        # Warm-up: the first run_serve pays one-off costs (SLO spec load,
        # lazy imports) that no later decision pays.
        serve.run_serve(
            serve.ServeConfig(epochs=2, num_committees=12, gamma=2, churn=0.1,
                              max_iterations=20, convergence_window=10, seed=seed)
        )

    def config(self, index: int) -> serve.ServeConfig:
        return serve.ServeConfig(
            epochs=self.epochs,
            churn=0.1,
            warm=True,
            engine="auto",
            seed=block_seed(self.seed, self.name, index),
            **self.shape,
        )

    def run_block(self, index: int, call: Call) -> Block:
        config = self.config(index)
        report, wall = call(serve.run_serve, config, collect_results=True)
        decisions = [
            Decision(result.final_instance, result.best_mask, result.best_utility)
            for result in report.results
        ]
        failures = [f"SLO violation: {violation}" for violation in report.slo_violations]
        if len(report.rows) != config.epochs:
            failures.append(f"served {len(report.rows)} of {config.epochs} epochs")
        return Block(
            wall_s=wall,
            latencies=[row.wall_s for row in report.rows],
            decisions=decisions,
            failures=failures,
        )


# ---------------------------------------------------------------------- #
# eth2-epoch
# ---------------------------------------------------------------------- #
#: The validator set and its committee draws are fixed; see README.md.
DEPLOYMENT_SEED = 0


class Eth2Epoch:
    """Streaming fastpath epochs with an SE final committee, telemetry off."""

    name = "eth2-epoch"

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.params = ChainParams(num_nodes=512, committee_size=16,
                                      seed=DEPLOYMENT_SEED, chain_engine="fastpath")
            self.gamma, self.iterations = 2, 50
            self.epochs, self.min_blocks, self.trace_blocks = 2, 2, 1
        else:
            self.params = ChainParams(num_nodes=16384, committee_size=128,
                                      seed=DEPLOYMENT_SEED, chain_engine="fastpath")
            self.gamma, self.iterations = 10, 1500
            self.epochs, self.min_blocks, self.trace_blocks = 5, 2, 1
        self.mvcom_config = MVComConfig(capacity=1000 * self.params.num_committees)
        self.seed = 0
        self._solver: Optional[StochasticExploration] = None
        self._results: list = []

    def _scheduler(self, instance: EpochInstance) -> np.ndarray:
        result = self._solver.solve(instance)
        self._results.append(result)
        return result.best_mask

    def simulation(self) -> elastico.ElasticoSimulation:
        return elastico.ElasticoSimulation(
            self.params, mvcom_config=self.mvcom_config, scheduler=self._scheduler
        )

    def setup(self, seed: int) -> None:
        self.seed = seed
        # Warm-up: one small epoch through every stage-3 path.
        warm = elastico.ElasticoSimulation(
            ChainParams(num_nodes=512, committee_size=16, seed=seed, chain_engine="fastpath")
        )
        warm.run_epoch_streaming()
        self.simulation()

    def run_block(self, index: int, call: Call) -> Block:
        seed = block_seed(self.seed, self.name, index)
        rng = np.random.default_rng(seed)
        tx_counts = rng.poisson(1400, size=(self.epochs, self.params.num_committees))
        self._solver = StochasticExploration(
            SEConfig(engine="auto", num_threads=self.gamma, max_iterations=self.iterations,
                     convergence_window=self.iterations, seed=seed)
        )
        sim = self.simulation()
        walls, decisions = [], []
        for epoch in range(self.epochs):
            self._results = []
            outcome, wall = call(sim.run_epoch_streaming, tx_counts[epoch])
            walls.append(wall)
            final = outcome.final
            if final is None or len(self._results) != 1:
                decisions.append(None)
                continue
            decision = Decision(final.instance, final.permitted_mask, self._results[0].best_utility)
            if final.permitted_txs != final.instance.weight(final.permitted_mask):
                decision.failures.append(
                    f"permitted_txs {final.permitted_txs} != weight(mask) "
                    f"{final.instance.weight(final.permitted_mask)}"
                )
            decisions.append(decision)
        failures = [f"epoch {k} committed no final block" for k, d in enumerate(decisions) if d is None]
        return Block(
            wall_s=sum(walls),
            latencies=walls,
            decisions=[d for d in decisions if d is not None],
            failures=failures,
        )


# ---------------------------------------------------------------------- #
# online-churn
# ---------------------------------------------------------------------- #
class OnlineChurn:
    """Single-epoch solves with JOINs and LEAVE failures inside the solve."""

    name = "online-churn"

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.committees, self.capacity, self.initial = 20, 16_000, 8
            self.spacing, self.leaves, self.gamma, self.budget = 10, 2, 2, 200
            self.min_blocks, self.trace_blocks = 2, 2
        else:
            self.committees, self.capacity, self.initial = 100, 80_000, 40
            self.spacing, self.leaves, self.gamma, self.budget = 40, 10, 10, 2000
            self.min_blocks, self.trace_blocks = 12, 3
        self.seed = 0
        self._trace = None

    def setup(self, seed: int) -> None:
        self.seed = seed
        self._trace = generate_bitcoin_trace(BitcoinTraceConfig())
        # Warm-up: one small solve through the scalar dynamic-event path.
        instance, schedule = OnlineChurn(tiny=True)._inputs(seed, self._trace)
        StochasticExploration(SEConfig(num_threads=2, max_iterations=50)).solve(
            instance, schedule=schedule
        )

    def _inputs(self, seed: int, trace) -> tuple:
        """Initial instance plus the JOIN/LEAVE schedule of one solve."""
        workload = generate_online_workload(
            WorkloadConfig(num_committees=self.committees, capacity=self.capacity, seed=seed),
            num_initial=self.initial,
            join_start=self.spacing,
            join_spacing=self.spacing,
            blocks=trace,
        )
        rng = np.random.default_rng(seed)
        # Failures hit committees present from bootstrap, at seeded rounds.
        victims = rng.choice(workload.instance.shard_ids, size=self.leaves, replace=False)
        rounds = rng.integers(1, self.budget, size=self.leaves)
        leaves = [
            CommitteeEvent(iteration=int(at), kind=EventKind.LEAVE, shard_id=int(victim))
            for at, victim in zip(rounds, victims)
        ]
        return workload.instance, DynamicSchedule(events=list(workload.schedule) + leaves)

    def run_block(self, index: int, call: Call) -> Block:
        seed = block_seed(self.seed, self.name, index)
        instance, schedule = self._inputs(seed, self._trace)
        # convergence_window == budget: every solve runs the full budget.
        solver = StochasticExploration(
            SEConfig(num_threads=self.gamma, max_iterations=self.budget,
                     convergence_window=self.budget, seed=seed)
        )
        result, wall = call(solver.solve, instance, schedule=schedule)
        decision = Decision(result.final_instance, result.best_mask, result.best_utility)
        return Block(wall_s=wall, latencies=[wall], decisions=[decision])


WORKLOADS = {cls.name: cls for cls in (ServeWarm, Eth2Epoch, OnlineChurn)}


def plain_call(fn, *args, **kwargs) -> tuple:
    """Untraced timer around one program call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
