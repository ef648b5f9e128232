"""Churn storms against the *live* scheduling service, not a single solve.

:func:`run_serve_storm` drives the :class:`~repro.data.stream.EpochStream`
feeder and a warm-chained SE solver exactly as ``mvcom serve`` does, but
injects a fresh :func:`~repro.faultinject.storm.generate_storm` schedule
into every epoch's solve with :class:`StormProbe` invariants armed — and
because a warm start calls the probe at iteration 0 with the *adopted*
replicas, the contracts are checked across the epoch boundary itself (the
new failure surface this mode exists to cover: stale thread state, an
incumbent from the wrong instance, infeasible carried solutions).

A violation serialises as a ``mvcom-serve-reproducer-v1`` document: the
whole epoch-by-epoch event history up to the failure plus the serve-storm
config, enough to replay the service loop bit-for-bit to the same raise.
It is written and read by the same
:func:`~repro.faultinject.runner.save_reproducer` /
:func:`~repro.faultinject.runner.load_reproducer` pair as single-solve
reproducers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dynamics import CommitteeEvent, DynamicSchedule
from repro.core.se import InfeasibleEpochError, SEConfig, SEResult, StochasticExploration
from repro.data.stream import EpochStream, EpochStreamConfig
from repro.faultinject.invariants import (
    KNOWN_INVARIANTS,
    StormInvariantViolation,
    StormProbe,
    check_trace_monotone,
)
from repro.faultinject.runner import (
    DEFAULT_ARMED,
    SERVE_REPRODUCER_FORMAT,
    event_from_json,
    event_to_json,
)
from repro.faultinject.storm import StormConfig, generate_storm
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import RandomStreams, derive_seed

__all__ = [
    "ServeStormConfig",
    "ServeStormOutcome",
    "SERVE_REPRODUCER_FORMAT",
    "run_serve_storm",
    "make_serve_reproducer",
    "replay_serve_reproducer",
]


@dataclass(frozen=True)
class ServeStormConfig:
    """Shape of one storm-battered serve run (stream x storm x solver)."""

    seed: int = 0
    epochs: int = 4
    num_committees: int = 40
    churn: float = 0.1
    growth: int = 0
    rate: float = 1.3
    events_per_epoch: int = 40
    gamma: int = 4
    max_iterations: int = 800
    convergence_window: int = 400
    warm: bool = True
    leave_fraction: float = 0.45
    duplicate_fraction: float = 0.1
    correlated_fraction: float = 0.2
    rejoin_fraction: float = 0.3
    straggler_fraction: float = 0.3
    min_live: int = 4

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.events_per_epoch <= 0:
            raise ValueError("events_per_epoch must be positive")

    def stream_config(self) -> EpochStreamConfig:
        return EpochStreamConfig(
            num_committees=self.num_committees,
            seed=self.seed,
            rate=self.rate,
            churn=self.churn,
            growth=self.growth,
        )

    def storm_config(self, epoch: int) -> StormConfig:
        """The storm one served epoch faces (seed re-derived per epoch)."""
        return StormConfig(
            seed=derive_seed(self.seed, f"serve-storm-epoch-{epoch}"),
            num_events=self.events_per_epoch,
            num_committees=self.num_committees,
            gamma=self.gamma,
            max_iterations=self.max_iterations,
            convergence_window=self.convergence_window,
            leave_fraction=self.leave_fraction,
            duplicate_fraction=self.duplicate_fraction,
            correlated_fraction=self.correlated_fraction,
            rejoin_fraction=self.rejoin_fraction,
            straggler_fraction=self.straggler_fraction,
            min_live=self.min_live,
        )


@dataclass
class ServeStormOutcome:
    """One storm-battered serve run, classified like a storm outcome."""

    status: str  # "survived" | "violated" | "infeasible"
    config: ServeStormConfig
    armed: Tuple[str, ...]
    events_by_epoch: List[List[CommitteeEvent]] = field(default_factory=list)
    results: List[SEResult] = field(default_factory=list)
    violation: Optional[StormInvariantViolation] = None
    failed_epoch: Optional[int] = None
    infeasible_reason: Optional[str] = None
    boundaries_by_epoch: List[List[int]] = field(default_factory=list)
    checks_run: int = 0

    @property
    def survived(self) -> bool:
        """True when every epoch's contracts held through the whole run."""
        return self.status == "survived"


def _epoch_storm(
    config: ServeStormConfig, epoch: int, instance
) -> List[CommitteeEvent]:
    """Generate epoch ``epoch``'s storm from a per-epoch derived registry.

    A fresh :class:`RandomStreams` seeded by the epoch index means the
    generator's constant stream key never reuses a Mersenne sequence
    across the serve loop's iterations.
    """
    storm = config.storm_config(epoch)
    return generate_storm(instance, storm, RandomStreams(storm.seed))


def run_serve_storm(
    config: ServeStormConfig,
    events_by_epoch: Optional[Sequence[Sequence[CommitteeEvent]]] = None,
    armed: Optional[Sequence[str]] = None,
    extra_invariants: Optional[Dict[str, Callable[..., None]]] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> ServeStormOutcome:
    """Run the service loop with a storm inside every epoch's solve.

    Deterministic given ``config`` (and ``events_by_epoch`` when
    replaying): the stream, the per-epoch storms, and the solver all
    derive from ``config.seed`` through named streams.  The solver engine
    is pinned to ``serial`` for the same reason single-solve reproducers
    pin it: a reproducer must replay byte-for-byte anywhere.
    """
    armed = tuple(armed) if armed is not None else DEFAULT_ARMED
    if extra_invariants:
        armed = armed + tuple(extra_invariants)
    stream = EpochStream(config.stream_config())
    solver = StochasticExploration(
        SEConfig(
            num_threads=config.gamma,
            max_iterations=config.max_iterations,
            convergence_window=config.convergence_window,
            seed=derive_seed(config.seed, "serve-storm-solver"),
            engine="serial",
        ),
        telemetry=telemetry,
    )
    outcome = ServeStormOutcome(status="survived", config=config, armed=armed)
    previous: Optional[SEResult] = None
    permitted: List[int] = []

    for epoch in range(config.epochs):
        tick = stream.advance(permitted)
        if events_by_epoch is not None:
            if epoch >= len(events_by_epoch):
                break
            events = list(events_by_epoch[epoch])
        else:
            events = _epoch_storm(config, epoch, tick.instance)
        outcome.events_by_epoch.append(list(events))
        probe = StormProbe(
            solver,
            tick.instance,
            armed=armed,
            extra_invariants=extra_invariants,
            telemetry=telemetry,
        )
        try:
            result = solver.solve(
                tick.instance,
                schedule=DynamicSchedule(events=list(events)),
                probe=probe,
                warm=previous if config.warm else None,
            )
            if "trace-monotone" in armed:
                check_trace_monotone(result.utility_trace, probe.boundaries)
        except StormInvariantViolation as violation:
            outcome.status = "violated"
            outcome.violation = violation
            outcome.failed_epoch = epoch
            outcome.boundaries_by_epoch.append(list(probe.boundaries))
            outcome.checks_run += probe.checks_run
            break
        except InfeasibleEpochError as exc:
            outcome.status = "infeasible"
            outcome.infeasible_reason = str(exc)
            outcome.failed_epoch = epoch
            outcome.boundaries_by_epoch.append(list(probe.boundaries))
            outcome.checks_run += probe.checks_run
            break
        outcome.boundaries_by_epoch.append(list(probe.boundaries))
        outcome.checks_run += probe.checks_run
        outcome.results.append(result)
        previous = result
        final = result.final_instance
        permitted = [
            shard_id
            for shard_id, chosen in zip(final.shard_ids, result.best_mask)
            if chosen
        ]
        if telemetry.enabled:
            telemetry.event(
                "storm.serve_epoch",
                epoch=epoch,
                events=len(events),
                boundaries=len(probe.boundaries),
                iterations=result.iterations,
                best_utility=result.best_utility,
                warm=config.warm and epoch > 0,
            )

    if telemetry.enabled:
        telemetry.event(
            "storm.serve",
            status=outcome.status,
            epochs_completed=len(outcome.results),
            failed_epoch=outcome.failed_epoch,
            invariant=outcome.violation.invariant if outcome.violation else None,
            checks_run=outcome.checks_run,
        )
    return outcome


# ---------------------------------------------------------------------- #
# reproducer serialisation
# ---------------------------------------------------------------------- #
def make_serve_reproducer(outcome: ServeStormOutcome) -> Dict:
    """A replayable JSON document for a violated serve-storm run.

    Stores the *entire* epoch-by-epoch event history (earlier epochs set
    up the stream/warm state the failing epoch inherits), so replaying is
    a pure function of this document.
    """
    if outcome.violation is None and outcome.status != "infeasible":
        raise ValueError("a reproducer records a failure; this outcome has none")
    failure: Dict = {"epoch": outcome.failed_epoch}
    if outcome.violation is not None:
        failure["invariant"] = outcome.violation.invariant
        failure["iteration"] = outcome.violation.iteration
        failure["message"] = str(outcome.violation)
    else:
        failure["infeasible_reason"] = outcome.infeasible_reason
    return {
        "format": SERVE_REPRODUCER_FORMAT,
        "config": asdict(outcome.config),
        "armed": [name for name in outcome.armed],
        "failure": failure,
        "events_by_epoch": [
            [event_to_json(event) for event in events]
            for events in outcome.events_by_epoch
        ],
    }


def replay_serve_reproducer(
    reproducer: Dict,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> ServeStormOutcome:
    """Re-run a stored serve reproducer exactly (same seeds, same events).

    Built-in armed invariants replay as stored; custom
    ``extra_invariants`` cannot be serialised, so a reproducer recorded
    with them replays with the built-in subset (the stored failure data
    still names the original invariant).
    """
    config = ServeStormConfig(**reproducer["config"])
    events_by_epoch = [
        [event_from_json(payload) for payload in events]
        for events in reproducer["events_by_epoch"]
    ]
    armed = tuple(
        name for name in reproducer["armed"] if name in KNOWN_INVARIANTS
    )
    return run_serve_storm(
        config,
        events_by_epoch=events_by_epoch,
        armed=armed,
        telemetry=telemetry,
    )
