"""Execution engines for the Stochastic-Exploration race (Alg. 1).

:class:`repro.core.se.StochasticExploration` owns the algorithm; this module
owns *how fast it runs*.  Three engines share one driver
(:class:`_EngineRun`) that keeps everything observable on the calling
process — bootstrap, dynamic events (Alg. 1 lines 9-12), probes, telemetry,
the :class:`~repro.core.convergence.ConvergenceDetector` and the incumbent
λ — so rule MV007 and the faultinject probe contract hold for every engine:

``serial``
    The reference scalar loop (the pre-engine ``solve`` body, verbatim).
    Golden tests pin it unchanged.

``parallel``
    The Γ executor replicas are *independent between dynamic-event
    boundaries* — every stream a replica consumes is keyed by its
    ``replica_id``, never by iteration order — so each replica is advanced
    in a worker process for a whole *segment* (up to the next scheduled
    event, in ``convergence_window``-sized chunks otherwise) and returns a
    compact per-round log.  The driver merges the logs round-by-round,
    rebuilds the traces, runs convergence on the merged series and
    truncates at the exact converged round.  Results are **byte-identical**
    to the serial engine: same seeds → same masks, traces and iteration
    counts.  (Merge argument: the incumbent's utility is monotone and
    bounds every past fired utility, so only a fire that *strictly improves
    its own replica's running fired-max* can ever win a round; workers log
    exactly those, and the driver replays the serial replica-order
    tie-break over them.)

``vectorized``
    The fully-batched Γ×thread race kernel: **one** numpy race covers every
    replica's racing threads simultaneously.  Swap pairs and Exp(1)
    variates come from multi-round blocks of the named
    ``"vectorized-race"`` stream (layout below).  Each round evaluates
    eq. (8) as array ops over the whole population, finds each replica's
    minimum armed timer by a segmented (inf-padded rectangular) argmin —
    no per-replica Python loop — and applies all fires at once (one fire
    per replica touches disjoint rows, so the batch is exact).  It
    consumes randomness in a different order than the scalar engines, so
    it is validated *distributionally* (χ²/KS tests in
    ``tests/test_core_engines.py``), not byte-wise.

``auto`` (the :class:`~repro.core.se.SEConfig` default)
    Not a fourth engine but one selection rule (:func:`select_engine`):
    ``vectorized`` when the racing work ``Γ × threads`` reaches
    :data:`AUTO_VECTORIZE_MIN_WORK`, else ``serial``.  It reads neither
    the machine nor the dynamic-event schedule, so a seeded run picks the
    same engine — hence the same trajectory — on every box.  ``parallel``
    is only ever chosen explicitly.  The decision is logged through the
    injected obs hub as an ``engine.auto`` event.

Vectorized stream layout (the engine's own named streams, independent of
the per-replica scalar streams).  ``T`` counts racing threads **across all
Γ replicas** in replica-major, cardinality-minor order.  The main
``"vectorized-race"`` stream is drawn in blocks of ``R`` rounds, ``R =
min(rounds left in the segment, 65536 // T)``: first one ``(R, T, 2)``
tensor of lane-0 pair uniforms (out-index, in-index), then one ``(R, T)``
tensor of Exp(1) inversion uniforms.  Because the two tensors are drawn
back to back, a block is *not* stream-equivalent to ``R`` per-round draws:
the block size is part of the trajectory.  Only rows whose lane-0 pair
violates the capacity (const. 4) draw their remaining ``pair_tries - 1``
candidate pairs from the separate ``"vectorized-race-retry"`` stream — one
``(rejected, pair_tries - 1, 2)`` block per round, first feasible lane
wins, budget-exhausted rows park — so the common case (ample slack) pays 3
uniforms per thread-round instead of the scalar engines' up-to-33.  Both
streams replay deterministically: the retry block's size is a function of
the trajectory, which is a function of the seeds alone.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.convergence import ConvergenceDetector
from repro.core.dynamics import CommitteeEvent, DynamicSchedule
from repro.core.problem import EpochInstance
from repro.core.repair import greedy_improve
from repro.core.se import (
    InfeasibleEpochError,
    SEResult,
    SEWarmState,
    StochasticExploration,
    _Replica,
    instances_match,
)
from repro.core.solution import Solution
from repro.core.timers import LOG_DURATION_MAX, LOG_DURATION_MIN
from repro.sim.rng import RandomStreams

#: Concrete engines (each names a ``run_*`` implementation below).
ENGINE_NAMES = ("serial", "parallel", "vectorized")

#: The selection rule accepted by ``SEConfig(engine=...)`` alongside the
#: concrete engines; resolved per solve by :func:`select_engine`.
AUTO_ENGINE = "auto"

#: Everything ``SEConfig(engine=...)`` accepts.
SELECTABLE_ENGINES = (AUTO_ENGINE,) + ENGINE_NAMES

#: Racing population ``Γ × racing threads`` at which the batched kernel's
#: per-round numpy dispatch overhead is amortised and it beats the scalar
#: loop.  Measured on the bench box (``benchmarks/bench_se_engines.py``):
#: the crossover sits near work ≈ 60; 192 leaves a ~3x safety margin so
#: ``auto`` is never slower than serial.  Machine-independent on purpose —
#: this threshold decides the *trajectory* (scalar vs batched draws).
AUTO_VECTORIZE_MIN_WORK = 192


def count_racing_threads(replica: _Replica) -> int:
    """Threads of one replica that can race (hold a swappable solution)."""
    return sum(
        1 for thread in replica.threads
        if thread.solution is not None and thread.sel and thread.unsel
    )


def select_engine(config, racing_threads: int) -> Tuple[str, str]:
    """Resolve ``engine="auto"`` to a concrete engine; returns (engine, reason).

    One rule on the racing work ``Γ × racing_threads``: the batched kernel
    once it reaches :data:`AUTO_VECTORIZE_MIN_WORK`, the scalar loop below.
    The rule reads neither the machine nor the dynamic-event schedule, so a
    seeded run picks the same engine, hence the same trajectory, everywhere.
    """
    work = config.num_threads * racing_threads
    if work >= AUTO_VECTORIZE_MIN_WORK:
        return (
            "vectorized",
            f"work={work} >= {AUTO_VECTORIZE_MIN_WORK}: batched kernel amortises",
        )
    return "serial", f"work={work} < {AUTO_VECTORIZE_MIN_WORK}: scalar loop wins"


# ------------------------------------------------------------------ #
# shared driver state
# ------------------------------------------------------------------ #
class _EngineRun:
    """Driver-side bookkeeping shared by all engines.

    Owns exactly the state the pre-engine ``solve`` loop kept on its stack:
    the named streams, the replicas, the incumbent, traces, detector and
    applied events.  Engines differ only in how they advance the replicas
    between event boundaries.
    """

    def __init__(
        self,
        solver: StochasticExploration,
        instance: EpochInstance,
        schedule: Optional[DynamicSchedule],
        probe: Optional[Callable[..., None]],
        warm: Optional[SEWarmState] = None,
    ) -> None:
        self.solver = solver
        self.config = solver.config
        self.telemetry = solver.telemetry
        self.traced = solver.telemetry.enabled  # hoisted: race loops pay one load
        self.instance = instance
        self.schedule = schedule
        self.probe = probe
        self.engine = self.config.engine  # run_engine resolves "auto"
        if warm is None:
            self.generation = 0
            self.streams = RandomStreams(self.config.seed)
            self.replicas = solver._spawn_replicas(instance, self.streams)
        else:
            # Warm start: adopt the carried replicas/streams in place.  The
            # streams registry's cached generators make every named stream
            # (init, leave, vectorized-race) *continue* across the handoff.
            self.generation = warm.generation
            self.streams = warm.streams
            self.warm_stats = solver._adopt_replicas(warm, instance)
            self.replicas = warm.replicas
        if not any(thread.active for replica in self.replicas for thread in replica.threads):
            raise InfeasibleEpochError(
                "no feasible solution at any thread cardinality; capacity too small"
            )
        if schedule is not None:
            schedule.reset()
        if self.traced:
            cardinalities = [t.cardinality for t in self.replicas[0].threads]
            if warm is None:
                self.telemetry.event(
                    "se.bootstrap",
                    replicas=len(self.replicas),
                    solution_threads=len(cardinalities),
                    n_lo=min(cardinalities),
                    n_hi=max(cardinalities),
                    num_shards=instance.num_shards,
                    capacity=instance.capacity,
                )
            else:
                self.telemetry.event(
                    "se.warm_start",
                    replicas=len(self.replicas),
                    solution_threads=len(cardinalities),
                    generation=self.generation,
                    num_shards=instance.num_shards,
                    **self.warm_stats,
                )
        self.detector = ConvergenceDetector(window=self.config.convergence_window)
        if warm is None:
            best = solver._best_current(self.replicas)
            self.best = solver._maybe_full_solution(instance, best)
        elif self.warm_stats["zero_drift"]:
            # Continuing the same solve: the incumbent carries verbatim
            # (it is monotone and already dominates every current
            # solution), rebound onto the caller's instance object.
            best = warm.best.copy()
            best.instance = instance
            self.best = best
        else:
            # The carried incumbent is a *base*, not just a candidate:
            # after the feasibility rebase, one deterministic greedy pass
            # (drop drained negative-value members, refill the freed Ĉ
            # slack with the drifted instance's winners) turns it into a
            # real head start instead of a collapsed stale solution.
            best = solver._rebase_best(warm.best, instance)
            greedy_improve(instance, best)
            best = solver._pick_better(best, solver._best_current(self.replicas))
            self.best = solver._maybe_full_solution(instance, best)
        if warm is not None and probe is not None:
            # The epoch boundary is itself an event boundary: arm the same
            # probe contract the dynamic-event path honours, so storm
            # invariants hold *across* epochs, not just within one solve.
            probe(
                iteration=0,
                events=[],
                instance=instance,
                best=self.best,
                replicas=self.replicas,
            )
        self.utility_trace: List[float] = []
        self.current_trace: List[float] = []
        self.time_trace: List[float] = []
        self.events_applied: List[CommitteeEvent] = []
        self.converged = False
        self.iterations = 0

    # -------------------------------------------------------------- #
    def apply_due_events(self, iteration: int) -> None:
        """Alg. 1 lines 9-12 at one boundary (identical to the serial loop)."""
        if self.schedule is None:
            return
        fired_events = self.schedule.due(iteration)
        if not fired_events:
            return
        solver = self.solver
        self.instance = solver._apply_events(
            self.instance, self.replicas, fired_events, self.streams,
            generation=self.generation,
        )
        self.events_applied.extend(fired_events)
        self.detector.reset()
        self.best = solver._rebase_best(self.best, self.instance)
        self.best = solver._pick_better(self.best, solver._best_current(self.replicas))
        self.best = solver._maybe_full_solution(self.instance, self.best)
        if self.probe is not None:
            self.probe(
                iteration=iteration,
                events=fired_events,
                instance=self.instance,
                best=self.best,
                replicas=self.replicas,
            )
        if self.traced:
            for event in fired_events:
                self.telemetry.event(
                    "se.dynamic",
                    iteration=iteration,
                    kind=event.kind.name,
                    shard_id=event.shard_id,
                    num_shards=self.instance.num_shards,
                )

    def finish_round(
        self, iteration: int, current: float, virtual_time: float, transitions: int
    ) -> bool:
        """Trace/telemetry/convergence tail of one race round.

        Returns True when the run is converged *and* the schedule is
        exhausted — the loop-break condition of the serial engine.
        """
        self.iterations = iteration + 1
        self.utility_trace.append(self.best.utility)
        self.current_trace.append(current)
        self.time_trace.append(virtual_time)
        if self.traced:
            # Each fired timer triggers one RESET broadcast: every sibling
            # solution re-draws its pair and timer (Alg. 1).
            self.telemetry.count("se.reset_broadcasts", transitions, iteration=iteration)
            self.telemetry.event(
                "se.round",
                iteration=iteration,
                best_utility=self.best.utility,
                current_utility=current,
                virtual_time=virtual_time,
                transitions=transitions,
            )
        if self.detector.update(self.best.utility) and (
            self.schedule is None or self.schedule.exhausted
        ):
            self.converged = True
            return True
        return False

    def segment_length(self, iteration: int) -> int:
        """Rounds until the next event boundary, capped at one chunk.

        Chunks are ``convergence_window``-sized so a converged run never
        overshoots by more than one window of (discarded) worker rounds.
        """
        limit = self.config.max_iterations
        if self.schedule is not None and not self.schedule.exhausted:
            limit = min(limit, self.schedule.next_iteration)
        if limit <= iteration:
            limit = iteration + 1
        return min(limit - iteration, max(1, self.config.convergence_window))

    def result(self) -> SEResult:
        """Materialise the :class:`~repro.core.se.SEResult` (with se.done)."""
        if self.traced:
            self.telemetry.event(
                "se.done",
                iterations=self.iterations,
                converged=self.converged,
                best_utility=self.best.utility,
                best_count=self.best.count,
                best_weight=self.best.weight,
                events_applied=len(self.events_applied),
            )
        return SEResult(
            best_mask=self.best.mask.copy(),
            best_utility=self.best.utility,
            best_weight=self.best.weight,
            best_count=self.best.count,
            iterations=self.iterations,
            converged=self.converged,
            utility_trace=np.asarray(self.utility_trace),
            current_trace=np.asarray(self.current_trace),
            virtual_time_trace=np.asarray(self.time_trace),
            thread_cardinalities=[t.cardinality for t in self.replicas[0].threads],
            num_replicas=len(self.replicas),
            events_applied=self.events_applied,
            final_instance=self.instance,
            engine=self.engine,
            warm_state=SEWarmState(
                replicas=self.replicas,
                streams=self.streams,
                best=self.best,
                instance=self.instance,
                generation=self.generation + 1,
            ),
        )


# ------------------------------------------------------------------ #
# serial engine (reference)
# ------------------------------------------------------------------ #
def run_serial(run: _EngineRun) -> SEResult:
    """The reference scalar loop — the pre-engine ``solve`` body."""
    config = run.config
    telemetry = run.telemetry
    traced = run.traced
    for iteration in range(config.max_iterations):
        run.apply_due_events(iteration)
        round_best: Optional[Solution] = None
        transitions = 0
        for replica_index, replica in enumerate(run.replicas):
            fired = replica.race_round()
            if fired is not None and fired.solution is not None:
                transitions += 1
                if traced:
                    swap_out, swap_in = fired.last_swap or (-1, -1)
                    telemetry.event(
                        "se.transition",
                        iteration=iteration,
                        replica=replica_index,
                        cardinality=fired.cardinality,
                        swap_out=swap_out,
                        swap_in=swap_in,
                        utility=fired.solution.utility,
                    )
                if round_best is None or fired.solution.utility > round_best.utility:
                    round_best = fired.solution
        run.best = run.solver._pick_better(run.best, round_best)
        current = max(replica.current_utility for replica in run.replicas)
        virtual_time = max(replica.virtual_time for replica in run.replicas)
        if run.finish_round(iteration, current, virtual_time, transitions):
            break
    return run.result()


# ------------------------------------------------------------------ #
# parallel engine (process pool over replicas, byte-identical)
# ------------------------------------------------------------------ #
@dataclass
class _SegmentLog:
    """Compact per-round log a worker returns for one replica segment.

    ``improvements[k]`` is ``(utility, weight, count, selected_bytes)`` for
    the round-``k`` fires that strictly improved this replica's running
    fired-max within the segment — a superset of every fire that could win
    a round against the monotone incumbent, which is all the driver needs
    to rebuild the serial best-tracking byte-for-byte.
    """

    fired: List[bool]
    fired_utilities: List[float]
    cardinalities: List[int]
    swaps: List[Optional[Tuple[int, int]]]
    currents: List[float]
    virtual_times: List[float]
    improvements: Dict[int, Tuple[float, int, int, bytes]]


def advance_replica_segment(replica: _Replica, rounds: int) -> Tuple[_Replica, _SegmentLog]:
    """Advance one executor replica ``rounds`` race rounds (worker entry).

    Runs only the pure race (Alg. 1 lines 14-21 / Alg. 3 timers, eq. 8);
    dynamic events, probes and telemetry stay on the driver.  Module-level
    by design: :class:`concurrent.futures.ProcessPoolExecutor` must pickle
    the callable for spawn-safe dispatch (lint rule MV008).
    """
    fired: List[bool] = []
    fired_utilities: List[float] = []
    cardinalities: List[int] = []
    swaps: List[Optional[Tuple[int, int]]] = []
    currents: List[float] = []
    virtual_times: List[float] = []
    improvements: Dict[int, Tuple[float, int, int, bytes]] = {}
    local_max = float("-inf")
    for k in range(rounds):
        winner = replica.race_round()
        if winner is not None and winner.solution is not None:
            solution = winner.solution
            utility = solution.utility
            fired.append(True)
            fired_utilities.append(utility)
            cardinalities.append(winner.cardinality)
            swaps.append(winner.last_swap)
            if utility > local_max:
                local_max = utility
                improvements[k] = (
                    utility,
                    solution.weight,
                    solution.count,
                    bytes(solution.selected),
                )
        else:
            fired.append(False)
            fired_utilities.append(float("-inf"))
            cardinalities.append(-1)
            swaps.append(None)
        currents.append(replica.current_utility)
        virtual_times.append(replica.virtual_time)
    return replica, _SegmentLog(
        fired=fired,
        fired_utilities=fired_utilities,
        cardinalities=cardinalities,
        swaps=swaps,
        currents=currents,
        virtual_times=virtual_times,
        improvements=improvements,
    )


_WORKER_POOLS: Dict[int, ProcessPoolExecutor] = {}


def clamp_workers(num_workers: int, cpu_count: Optional[int] = None) -> int:
    """Validate and clamp a requested pool size to the machine's cores.

    Oversubscribing a process pool is never a win for this workload — the
    4-workers-on-1-core configuration is exactly what produced the 0.79x
    ``se_engines.parallel_speedup`` bench regression — so every pool goes
    through this clamp.  Raises on ``num_workers < 1`` (a silent serial
    fallback would hide a caller bug).  ``cpu_count`` overrides the probed
    core count for tests.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    return min(num_workers, cpu_count)


def _shared_pool(num_workers: int) -> ProcessPoolExecutor:
    """Process pool reused across solves (spawn startup is seconds-scale)."""
    pool = _WORKER_POOLS.get(num_workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=num_workers, mp_context=multiprocessing.get_context("spawn")
        )
        _WORKER_POOLS[num_workers] = pool
    return pool


def shared_pool(num_workers: int) -> ProcessPoolExecutor:
    """Public handle on the cached spawn-safe pool (clamped to cpu_count).

    The harness's figure-sweep runner (:mod:`repro.harness.parallel`)
    reuses the same executors as the parallel SE engine, so one ``mvcom``
    invocation never pays spawn startup twice for the same pool size.
    """
    return _shared_pool(clamp_workers(num_workers))


def shutdown_worker_pools() -> None:
    """Tear down every cached parallel-engine pool (registered atexit)."""
    for pool in _WORKER_POOLS.values():
        pool.shutdown()
    _WORKER_POOLS.clear()


atexit.register(shutdown_worker_pools)


def _solution_from_log(
    instance: EpochInstance, parts: Tuple[float, int, int, bytes]
) -> Solution:
    """Rehydrate a worker-logged solution, carrying its caches verbatim.

    The incremental float caches must transfer bit-for-bit (recomputing
    utility from the mask can differ in the last bit), so this bypasses
    ``Solution.__init__``.
    """
    utility, weight, count, selected = parts
    return Solution.from_cached(instance, selected, utility, weight, count)


def _merge_segment(
    run: _EngineRun, start_iteration: int, segment: int, logs: List[_SegmentLog]
) -> Optional[int]:
    """Replay one segment's worker logs through the serial round tail.

    Scans each round's improvement records in replica order with the serial
    strict-``>`` tie-break, so the incumbent, traces and convergence
    decision come out byte-identical.  Returns the number of rounds
    actually consumed when convergence fires mid-segment (the segment's
    remaining rounds are discarded, as the serial loop would never have
    executed them), else None.
    """
    telemetry = run.telemetry
    traced = run.traced
    for k in range(segment):
        iteration = start_iteration + k
        transitions = 0
        candidate: Optional[Tuple[float, int, int, bytes]] = None
        for replica_index, log in enumerate(logs):
            if not log.fired[k]:
                continue
            transitions += 1
            if traced:
                swap_out, swap_in = log.swaps[k] or (-1, -1)
                telemetry.event(
                    "se.transition",
                    iteration=iteration,
                    replica=replica_index,
                    cardinality=log.cardinalities[k],
                    swap_out=swap_out,
                    swap_in=swap_in,
                    utility=log.fired_utilities[k],
                )
            improvement = log.improvements.get(k)
            if improvement is not None and (
                candidate is None or improvement[0] > candidate[0]
            ):
                candidate = improvement
        if candidate is not None and candidate[0] > run.best.utility:
            run.best = _solution_from_log(run.instance, candidate)
        current = max(log.currents[k] for log in logs)
        virtual_time = max(log.virtual_times[k] for log in logs)
        if run.finish_round(iteration, current, virtual_time, transitions):
            return k + 1
    return None


def _rebind_instance(replicas: List[_Replica], instance: EpochInstance) -> None:
    """Point every unpickled thread solution back at the driver's instance.

    Workers never mutate the instance, but round-tripping a replica through
    pickle gives its solutions a value-equal *copy*.  The serial loop's
    invariant — and the storm probe's ``best.instance is instance`` check —
    require the single shared object, so restore identity after each
    segment.  Cached utility/weight scalars stay valid (the copy is equal).
    """
    for replica in replicas:
        for thread in replica.threads:
            if thread.solution is not None:
                thread.solution.instance = instance


def run_parallel(run: _EngineRun) -> SEResult:
    """Segmented Γ-replica execution over a spawn-safe process pool."""
    config = run.config
    granted = clamp_workers(config.num_workers)
    if granted != config.num_workers and run.traced:
        run.telemetry.event(
            "engine.workers_clamped",
            requested=config.num_workers,
            granted=granted,
        )
    pool = _shared_pool(granted)
    iteration = 0
    while iteration < config.max_iterations:
        run.apply_due_events(iteration)
        segment = run.segment_length(iteration)
        futures = [
            pool.submit(advance_replica_segment, replica, segment)
            for replica in run.replicas
        ]
        outcomes = [future.result() for future in futures]
        logs = [log for _, log in outcomes]
        consumed = _merge_segment(run, iteration, segment, logs)
        if consumed is not None:
            # Convergence fired mid-segment.  The worker replicas have
            # raced the full segment, but the serial loop stops at the
            # convergence round — re-advance the driver's pre-segment
            # replicas exactly ``consumed`` rounds so the carried warm
            # state (thread solutions + RNG end-states) stays
            # byte-identical to the serial engine's.
            for replica in run.replicas:
                for _ in range(consumed):
                    replica.race_round()
            break
        run.replicas = [replica for replica, _ in outcomes]
        _rebind_instance(run.replicas, run.instance)
        iteration += segment
    return run.result()


# ------------------------------------------------------------------ #
# vectorized engine (batched race kernel, distributional)
# ------------------------------------------------------------------ #
class _VectorState:
    """Flattened array mirror of every *racing* solution thread, Γ-wide.

    A thread races when it holds a solution with both selected and
    unselected positions; threads with nothing to swap (e.g. the
    full-cardinality :math:`f_{|I_j|}`) contribute a constant
    ``static_current`` instead.  Rows span **all Γ replicas** in
    replica-major order; each replica's rows additionally scatter into one
    row of a static inf-padded ``(Γ, T_max)`` rectangle, so the per-replica
    minimum-timer reduction is a single row-wise ``argmin`` over the
    rectangle and the whole round — arming, racing, and every replica's
    fire — is one batch of array ops with no per-group Python loop.

    Hot-path layout: per-thread ``sel``/``unsel`` index rows are stored as
    flat arrays together with ``tx``/``half_beta*value`` gather mirrors, so
    one round costs a handful of ``take`` gathers on ``(T,)`` arrays.  The
    cardinalities never change, so the uniform draws for many rounds are
    pre-shaped into index/log-variate blocks at once
    (:meth:`start_block`).  A block is *not* stream-equivalent to per-round
    draws, so the block size is part of the trajectory.
    """

    def __init__(
        self,
        replicas: List[_Replica],
        instance: EpochInstance,
        config,
        retry_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.instance = instance
        self.replicas = replicas
        self.retry_rng = retry_rng
        self.threads: List = []
        self.groups: List[Tuple[int, int]] = []
        static_current = float("-inf")
        for replica in replicas:
            start = len(self.threads)
            for thread in replica.threads:
                if thread.solution is None:
                    continue
                if thread.sel and thread.unsel:
                    self.threads.append(thread)
                else:
                    static_current = max(static_current, thread.solution.utility)
            self.groups.append((start, len(self.threads)))
        self.static_current = static_current
        size = len(self.threads)
        self.size = size
        num_shards = instance.num_shards
        max_sel = max((len(t.sel) for t in self.threads), default=1)
        max_unsel = max((len(t.unsel) for t in self.threads), default=1)
        self.max_sel = max_sel
        self.max_unsel = max_unsel
        self.num_shards = num_shards
        sel = np.zeros((size, max_sel), dtype=np.int64)
        unsel = np.zeros((size, max_unsel), dtype=np.int64)
        self.n_sel = np.zeros(size, dtype=np.int64)
        self.n_unsel = np.zeros(size, dtype=np.int64)
        self.utility = np.zeros(size, dtype=np.float64)
        self.weight = np.zeros(size, dtype=np.int64)
        self.cards = np.zeros(size, dtype=np.int64)
        for row, thread in enumerate(self.threads):
            solution = thread.solution
            sel[row, : len(thread.sel)] = thread.sel
            unsel[row, : len(thread.unsel)] = thread.unsel
            self.n_sel[row] = len(thread.sel)
            self.n_unsel[row] = len(thread.unsel)
            self.utility[row] = solution.utility
            self.weight[row] = solution.weight
            self.cards[row] = thread.cardinality
        self.len_sel = self.n_sel.astype(np.float64)
        self.len_unsel = self.n_unsel.astype(np.float64)
        self.slack = instance.capacity - self.weight
        self.half_beta = 0.5 * config.beta
        self.log_mean_base = config.tau - np.log(self.len_unsel)
        self.pair_tries = config.pair_tries
        # Flat row-major stores plus gather mirrors: tx for the capacity
        # check (const. 4) and half_beta*value for the eq. (8) exponent.
        tx = np.asarray(instance.tx_counts, dtype=np.int64)
        values = np.asarray(instance.values, dtype=np.float64)
        hbv = self.half_beta * values
        self.tx_arr = tx
        self.values_arr = values
        self.hbv_arr = hbv
        self.sel_flat = sel.reshape(-1)
        self.unsel_flat = unsel.reshape(-1)
        self.tx_sel = tx[sel].reshape(-1)
        self.tx_unsel = tx[unsel].reshape(-1)
        self.hbv_sel = hbv[sel].reshape(-1)
        self.hbv_unsel = hbv[unsel].reshape(-1)
        self.rows = np.arange(size)
        self.off_sel = (np.arange(size, dtype=np.int64) * max_sel)
        self.off_unsel = (np.arange(size, dtype=np.int64) * max_unsel)
        self.virtual_times = np.array(
            [replica.virtual_time for replica in replicas], dtype=np.float64
        )
        # Segmented-argmin layout: rows scatter into an inf-padded (Γ, T_max)
        # rectangle at static positions (cardinalities never change between
        # event boundaries), so each replica's minimum armed timer is one
        # row-wise argmin over the rectangle — no per-group Python loop.
        # Slots beyond a group's size are written once and never touched, so
        # the pad buffer needs no per-round re-fill.
        num_groups = len(self.groups)
        self.num_groups = num_groups
        starts = np.array([start for start, _ in self.groups], dtype=np.int64)
        sizes = np.array([end - start for start, end in self.groups], dtype=np.int64)
        self.group_starts = starts
        self.group_sizes = sizes
        pad_width = int(sizes.max()) if size else 1
        self._pad_width = pad_width
        row_group = np.repeat(np.arange(num_groups, dtype=np.int64), sizes)
        self.row_group = row_group
        self._pad_pos = row_group * pad_width + (self.rows - starts[row_group])
        self._padded = np.full(num_groups * pad_width, np.inf)
        self._group_index = np.arange(num_groups)
        # Running current-utility max over racing rows (same incremental
        # rule as _Replica.race_round, rescans only on downhill max fires).
        self.racing_current = float(self.utility.max()) if size else float("-inf")
        # Per-round fire results for the driver (rewritten by race_round).
        self.last_rows = np.empty(0, dtype=np.int64)
        self.last_groups = np.empty(0, dtype=np.int64)
        self.last_pos_out = np.empty(0, dtype=np.int64)
        self.last_pos_in = np.empty(0, dtype=np.int64)
        self.last_utilities = np.empty(0, dtype=np.float64)
        self.last_best_row = -1
        self.last_best_utility = float("-inf")
        self._blk_out: Optional[np.ndarray] = None
        self._blk_in: Optional[np.ndarray] = None
        self._blk_timer_base: Optional[np.ndarray] = None

    # -------------------------------------------------------------- #
    def start_block(self, rng: np.random.Generator, rounds: int) -> None:
        """Draw and pre-shape ``rounds`` rounds of main-stream uniforms.

        Two draws per block: a ``(rounds, T, 2)`` tensor of lane-0
        pair-index uniforms and a ``(rounds, T)`` tensor of Exp(1)
        inversion uniforms (one per thread-round — only the armed lane's
        timer is ever needed).  Rejected rows re-draw from the separate
        retry stream inside :meth:`race_round`, so this block's shape never
        depends on acceptance.
        """
        # Drop the spent block first so it never coexists with the new one.
        self._blk_out = self._blk_in = self._blk_timer_base = None
        shape = (rounds, self.size)
        pairs = rng.random(shape + (2,))
        # One float scratch serves the out-index, in-index and timer stages.
        scratch = np.multiply(pairs[..., 0], self.len_sel, out=np.empty(shape))
        out = scratch.astype(np.int64)
        np.minimum(out, self.n_sel - 1, out=out)
        out += self.off_sel
        np.multiply(pairs[..., 1], self.len_unsel, out=scratch)
        del pairs
        inn = scratch.astype(np.int64)
        np.minimum(inn, self.n_unsel - 1, out=inn)
        inn += self.off_unsel
        # Pre-fold the eq. (8) log-mean base and the Exp(1) inversion so a
        # round's timer is just two gathers and two adds on (T,) arrays:
        # timer = log_mean_base + log(max(-log1p(-u), 1e-300)), in place.
        rng.random(shape, out=scratch)
        np.negative(scratch, out=scratch)
        np.log1p(scratch, out=scratch)
        np.negative(scratch, out=scratch)
        np.maximum(scratch, 1e-300, out=scratch)
        np.log(scratch, out=scratch)
        scratch += self.log_mean_base
        self._blk_out = out
        self._blk_in = inn
        self._blk_timer_base = scratch

    def race_round(self, block_round: int) -> int:
        """One batched race round across all Γ replicas; returns the fire count.

        Semantics match the scalar Set-timer()/State-Transit pair: each
        thread tries up to ``pair_tries`` uniform swap pairs, arms an
        eq. (8) log-timer on the first capacity-feasible one (const. 4),
        and each replica fires its minimum armed timer.  Fire details land
        in the ``last_*`` arrays for the driver.  Fires across replicas are
        applied as one batch — each replica fires at most one row and the
        flat sel/unsel slots of distinct rows are disjoint, so the
        simultaneous scatter is exactly the sequential application.

        Fast path: the main block only carries lane-0 pairs, so acceptance
        is tested with (T,)-shaped ops; just the rejected rows draw and
        scan their remaining ``pair_tries - 1`` lanes from the retry
        stream.  The lane chosen per thread (first feasible) matches the
        scalar rejection loop's.
        """
        if self.size == 0:
            self.last_rows = self.last_groups = np.empty(0, dtype=np.int64)
            self.last_best_row = -1
            return 0
        flat_out = self._blk_out[block_round]  # (T,) lane-0 pair rows
        flat_in = self._blk_in[block_round]
        timer_base = self._blk_timer_base[block_round]
        rejected = (
            self.tx_unsel.take(flat_in) - self.tx_sel.take(flat_out)
        ) > self.slack
        timers = (
            timer_base
            - self.hbv_unsel.take(flat_in)
            + self.hbv_sel.take(flat_out)
        )
        if rejected.any():
            pend = np.flatnonzero(rejected)
            tries = self.pair_tries - 1
            if tries == 0:
                timers[pend] = np.inf  # single-try budget: rejected rows park
            else:
                if self.retry_rng is None:
                    raise RuntimeError(
                        "race_round needs a retry stream once a lane-0 pair is "
                        "rejected; construct _VectorState with retry_rng"
                    )
                retry = self.retry_rng.random((pend.size, tries, 2))
                sub_out = (retry[..., 0] * self.len_sel[pend, None]).astype(np.int64)
                np.minimum(sub_out, self.n_sel[pend, None] - 1, out=sub_out)
                sub_out += self.off_sel[pend, None]
                sub_in = (retry[..., 1] * self.len_unsel[pend, None]).astype(np.int64)
                np.minimum(sub_in, self.n_unsel[pend, None] - 1, out=sub_in)
                sub_in += self.off_unsel[pend, None]
                accepted = (
                    self.tx_unsel.take(sub_in) - self.tx_sel.take(sub_out)
                ) <= self.slack[pend, None]
                lane = np.argmax(accepted, axis=1)  # first feasible lane
                sub_rows = self.rows[: pend.size]
                pend_out = sub_out[sub_rows, lane]
                pend_in = sub_in[sub_rows, lane]
                flat_out = flat_out.copy()
                flat_in = flat_in.copy()
                flat_out[pend] = pend_out
                flat_in[pend] = pend_in
                timers[pend] = (
                    timer_base.take(pend)
                    - self.hbv_unsel.take(pend_in)
                    + self.hbv_sel.take(pend_out)
                )
                # Parked: no feasible pair within the budget.
                timers[pend[~accepted.any(axis=1)]] = np.inf
        # Segmented per-replica argmin over the static inf-padded rectangle.
        padded = self._padded
        padded[self._pad_pos] = timers
        rect = padded.reshape(self.num_groups, self._pad_width)
        slots = rect.argmin(axis=1)
        win_log = rect[self._group_index, slots]
        # Empty groups / all-parked replicas stay at inf and do not fire.
        groups = np.flatnonzero(np.isfinite(win_log))
        if groups.size == 0:
            self.last_rows = self.last_groups = np.empty(0, dtype=np.int64)
            self.last_best_row = -1
            return 0
        rows = self.group_starts[groups] + slots[groups]
        self.virtual_times[groups] += np.exp(
            np.clip(win_log[groups], LOG_DURATION_MIN, LOG_DURATION_MAX)
        )
        # Batched State Transit over the winning rows.
        f_out = flat_out[rows]
        f_in = flat_in[rows]
        pos_out = self.sel_flat[f_out]  # fancy gather: already copies
        pos_in = self.unsel_flat[f_in]
        self.sel_flat[f_out] = pos_in
        self.unsel_flat[f_in] = pos_out
        tx_in = self.tx_arr[pos_in]
        tx_out = self.tx_arr[pos_out]
        self.tx_sel[f_out] = tx_in
        self.tx_unsel[f_in] = tx_out
        self.hbv_sel[f_out] = self.hbv_arr[pos_in]
        self.hbv_unsel[f_in] = self.hbv_arr[pos_out]
        weight_delta = tx_in - tx_out
        self.weight[rows] += weight_delta
        self.slack[rows] -= weight_delta
        before = self.utility[rows]
        after = before + (self.values_arr[pos_in] - self.values_arr[pos_out])
        self.utility[rows] = after
        # Same incremental current-utility rule as _Replica.race_round,
        # applied to the whole fire batch: a rise can only raise the max; a
        # downgrade of a max-holder forces one rescan.
        top = int(np.argmax(after))
        top_utility = float(after[top])
        if top_utility > self.racing_current:
            self.racing_current = top_utility
        elif np.any((before == self.racing_current) & (after < before)):
            self.racing_current = float(self.utility.max())
        self.last_rows = rows
        self.last_groups = groups
        self.last_pos_out = pos_out
        self.last_pos_in = pos_in
        self.last_utilities = after
        # Rows are replica-major ascending and argmax takes the first max,
        # so this reproduces the serial lowest-replica tie-break.
        self.last_best_row = int(rows[top])
        self.last_best_utility = top_utility
        return int(rows.size)

    def current_utility(self) -> float:
        """Best current utility across racing and static threads."""
        if self.size == 0:
            return self.static_current
        return max(self.static_current, self.racing_current)

    def solution_at(self, row: int) -> Solution:
        """Materialise row ``row`` as a :class:`Solution` (caches carried)."""
        count = int(self.n_sel[row])
        offset = int(self.off_sel[row])
        mask = np.zeros(self.num_shards, dtype=bool)
        mask[self.sel_flat[offset : offset + count]] = True
        return Solution.from_cached(
            self.instance,
            mask.view(np.uint8).tobytes(),
            float(self.utility[row]),
            int(self.weight[row]),
            count,
        )

    def sync_back(self) -> None:
        """Write array state back into the thread objects (event boundaries)."""
        for row, thread in enumerate(self.threads):
            thread.set_solution(self.solution_at(row))
        for group, replica in enumerate(self.replicas):
            replica.virtual_time = float(self.virtual_times[group])
            replica.recompute_current()


def run_vectorized(run: _EngineRun) -> SEResult:
    """Batched single-process race; arrays persist between event boundaries."""
    config = run.config
    telemetry = run.telemetry
    traced = run.traced
    race_rng = run.streams.get("vectorized-race")
    retry_rng = run.streams.get("vectorized-race-retry")
    state: Optional[_VectorState] = None
    iteration = 0
    done = False
    while not done and iteration < config.max_iterations:
        schedule = run.schedule
        if (
            schedule is not None
            and not schedule.exhausted
            and schedule.next_iteration <= iteration
        ):
            if state is not None:
                state.sync_back()
                state = None
            run.apply_due_events(iteration)
        if state is None:
            state = _VectorState(run.replicas, run.instance, config, retry_rng=retry_rng)
        segment = run.segment_length(iteration)
        block_round = 0
        block_rounds = 0
        for round_index in range(iteration, iteration + segment):
            if block_round >= block_rounds:
                remaining = iteration + segment - round_index
                block_rounds = min(remaining, max(1, 65536 // max(1, state.size)))
                state.start_block(race_rng, block_rounds)
                block_round = 0
            transitions = state.race_round(block_round)
            block_round += 1
            if transitions:
                if traced:
                    for k in range(transitions):
                        row = int(state.last_rows[k])
                        telemetry.event(
                            "se.transition",
                            iteration=round_index,
                            replica=int(state.last_groups[k]),
                            cardinality=int(state.cards[row]),
                            swap_out=int(state.last_pos_out[k]),
                            swap_in=int(state.last_pos_in[k]),
                            utility=float(state.last_utilities[k]),
                        )
                if state.last_best_utility > run.best.utility:
                    run.best = state.solution_at(state.last_best_row)
            current = state.current_utility()
            # Replica virtual clocks exist (and carry across events) even
            # when no thread races — an all-parked or swap-less population
            # must report the carried clock, not reset it to zero.
            virtual_time = float(state.virtual_times.max())
            if run.finish_round(round_index, current, virtual_time, transitions):
                done = True
                break
        else:
            iteration += segment
    if state is not None:
        state.sync_back()
    return run.result()


# ------------------------------------------------------------------ #
# dispatch
# ------------------------------------------------------------------ #
def run_engine(
    solver: StochasticExploration,
    instance: EpochInstance,
    schedule: Optional[DynamicSchedule] = None,
    probe: Optional[Callable[..., None]] = None,
    warm: Optional[SEWarmState] = None,
) -> SEResult:
    """Run one SE solve on the engine named by ``solver.config.engine``.

    All engines return an :class:`~repro.core.se.SEResult` whose best
    solution satisfies const. (3) ``count >= N_min`` and const. (4)
    ``weight <= Ĉ``; ``serial`` and ``parallel`` are byte-identical for a
    given ``SEConfig.seed``, ``vectorized`` matches distributionally.
    ``"auto"`` resolves through :func:`select_engine` (``vectorized`` from
    racing work ``Γ × threads >= AUTO_VECTORIZE_MIN_WORK``, else
    ``serial``; never ``parallel``) and logs the decision as an
    ``engine.auto`` telemetry event.

    ``warm`` adopts a prior run's replicas/streams/incumbent before the
    race starts (see :meth:`StochasticExploration.solve`).  All three
    engine families accept warm state: the scalar loops continue the
    carried thread streams, and the batched kernel rebuilds its flat row
    space from the adopted threads so warm rows enter *pre-scored* (their
    incremental utility/weight caches transfer verbatim) while the
    ``vectorized-race`` streams resume mid-sequence.  ``"auto"``
    re-evaluates its split on the *adopted* population each solve, so the
    scalar-vs-batched choice tracks the committee count as it drifts
    across epochs.
    """
    run = _EngineRun(solver, instance, schedule, probe, warm=warm)
    engine = solver.config.engine
    if engine == AUTO_ENGINE:
        racing = count_racing_threads(run.replicas[0])
        engine, reason = select_engine(solver.config, racing)
        if run.traced:
            run.telemetry.event(
                "engine.auto",
                engine=engine,
                reason=reason,
                work=solver.config.num_threads * racing,
                racing_threads=racing,
            )
    run.engine = engine
    if engine == "parallel":
        return run_parallel(run)
    if engine == "vectorized":
        return run_vectorized(run)
    return run_serial(run)
