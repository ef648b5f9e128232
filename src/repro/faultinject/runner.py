"""Storm execution: run, classify, shrink, serialise, replay.

:func:`run_storm` batters one SE solve with a generated (or replayed) event
schedule under armed invariants and classifies the outcome:

* ``"survived"`` — the run completed and every armed invariant held;
* ``"violated"`` — an armed invariant raised
  :class:`repro.faultinject.invariants.StormInvariantViolation`;
* ``"infeasible"`` — the storm legitimately emptied the epoch
  (:class:`repro.core.se.InfeasibleEpochError`), which is *graceful
  degradation*, not a bug: an epoch with no committees has nothing to
  schedule.

A violated outcome shrinks (:func:`shrink_storm`) to a 1-minimal schedule
with the same failure signature and serialises as a replayable JSON
reproducer — :func:`replay_reproducer` reruns it bit-for-bit from the
stored seed, so a CI artifact is a complete bug report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dynamics import CommitteeEvent, DynamicSchedule, EventKind
from repro.core.problem import EpochInstance
from repro.core.se import InfeasibleEpochError, SEConfig, SEResult, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.faultinject.invariants import (
    DEFAULT_INVARIANTS,
    StormInvariantViolation,
    StormProbe,
    check_trace_monotone,
)
from repro.faultinject.shrink import shrink_events
from repro.faultinject.storm import StormConfig, generate_storm
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import RandomStreams

#: What :func:`run_storm` arms when the caller does not choose: the
#: event-boundary invariants plus the post-hoc trace check.
DEFAULT_ARMED = DEFAULT_INVARIANTS + ("trace-monotone",)

#: On-disk format tag for single-solve reproducer files.
REPRODUCER_FORMAT = "mvcom-storm-reproducer-v1"

#: On-disk format tag for serve-loop reproducer files
#: (:mod:`repro.faultinject.serve`).
SERVE_REPRODUCER_FORMAT = "mvcom-serve-reproducer-v1"


@dataclass
class StormOutcome:
    """One storm run, classified."""

    status: str  # "survived" | "violated" | "infeasible"
    config: StormConfig
    armed: Tuple[str, ...]
    events: List[CommitteeEvent]
    result: Optional[SEResult] = None
    violation: Optional[StormInvariantViolation] = None
    infeasible_reason: Optional[str] = None
    boundaries: List[int] = field(default_factory=list)
    checks_run: int = 0
    theorem2_checked: int = 0

    @property
    def survived(self) -> bool:
        """True when the run completed with every armed invariant intact."""
        return self.status == "survived"

    @property
    def signature(self) -> Optional[str]:
        """The violated invariant's name (None unless status is violated)."""
        return self.violation.invariant if self.violation is not None else None


def build_storm_instance(config: StormConfig) -> EpochInstance:
    """The bootstrap epoch instance for one storm run (paper trace, storm-sized).

    ``capacity=None`` applies the paper's scaling :math:`\\hat C = 1000\\,
    |I_j|` (Section VI-A) so storm instances stay properly oversubscribed at
    any committee count.
    """
    capacity = config.capacity if config.capacity is not None else 1_000 * config.num_committees
    workload = WorkloadConfig(
        num_committees=config.num_committees,
        capacity=capacity,
        alpha=config.alpha,
        seed=config.seed,
    )
    return generate_epoch_workload(workload).instance


def run_storm(
    config: StormConfig,
    events: Optional[Sequence[CommitteeEvent]] = None,
    armed: Optional[Sequence[str]] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
    engine: str = "serial",
    num_workers: int = 4,
) -> StormOutcome:
    """Run one storm against one SE solve and classify the outcome.

    Deterministic given ``config`` (and ``events`` when replaying): the
    instance, the event schedule and the solver all derive from
    ``config.seed`` through named streams, so one seed is one storm
    forever — the property the replay / shrink machinery builds on.
    ``engine="parallel"`` runs the same storm byte-identically across a
    process pool (probes still fire on the driver at event boundaries);
    see :mod:`repro.core.engine`.
    """
    armed = tuple(armed) if armed is not None else DEFAULT_ARMED
    instance = build_storm_instance(config)
    if events is None:
        events = generate_storm(instance, config, RandomStreams(config.seed))
    events = list(events)

    solver = StochasticExploration(
        SEConfig(
            num_threads=config.gamma,
            max_iterations=config.max_iterations,
            convergence_window=config.convergence_window,
            seed=config.seed,
            engine=engine,
            num_workers=num_workers,
        ),
        telemetry=telemetry,
    )
    probe = StormProbe(solver, instance, armed=armed, telemetry=telemetry)
    schedule = DynamicSchedule(events=list(events))

    outcome = StormOutcome(status="survived", config=config, armed=armed, events=events)
    try:
        result = solver.solve(instance, schedule=schedule, probe=probe)
        if "trace-monotone" in armed:
            check_trace_monotone(result.utility_trace, probe.boundaries)
        outcome.result = result
    except StormInvariantViolation as violation:
        outcome.status = "violated"
        outcome.violation = violation
    except InfeasibleEpochError as exc:
        outcome.status = "infeasible"
        outcome.infeasible_reason = str(exc)
    outcome.boundaries = list(probe.boundaries)
    outcome.checks_run = probe.checks_run
    outcome.theorem2_checked = probe.theorem2_checked

    if telemetry.enabled:
        telemetry.event(
            "storm.run",
            status=outcome.status,
            seed=config.seed,
            events=len(events),
            boundaries=len(outcome.boundaries),
            checks_run=outcome.checks_run,
            theorem2_checked=outcome.theorem2_checked,
            invariant=outcome.signature,
            iterations=outcome.result.iterations if outcome.result else None,
        )
    return outcome


def shrink_storm(
    outcome: StormOutcome,
    max_probes: int = 10_000,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> Tuple[List[CommitteeEvent], int]:
    """Shrink a violated outcome's schedule to a 1-minimal reproducer.

    The oracle replays each candidate through :func:`run_storm` (same
    config, same armed set) and matches on the failure *signature* — the
    violated invariant's name — because event deletion shifts boundary
    iterations without changing which contract breaks.
    """
    if outcome.status != "violated" or outcome.violation is None:
        raise ValueError("only violated outcomes can be shrunk")
    signature = outcome.violation.invariant

    def still_fails(candidate: List[CommitteeEvent]) -> bool:
        replayed = run_storm(outcome.config, events=candidate, armed=outcome.armed)
        return replayed.status == "violated" and replayed.signature == signature

    minimal, probes = shrink_events(outcome.events, still_fails, max_probes=max_probes)
    if telemetry.enabled:
        telemetry.event(
            "storm.shrink",
            invariant=signature,
            events_before=len(outcome.events),
            events_after=len(minimal),
            probes=probes,
        )
    return minimal, probes


# ---------------------------------------------------------------------- #
# reproducer serialisation
# ---------------------------------------------------------------------- #
def event_to_json(event: CommitteeEvent) -> Dict:
    """One event as a JSON-safe dict (kind stored by enum value)."""
    payload: Dict = {
        "iteration": int(event.iteration),
        "kind": event.kind.value,
        "shard_id": int(event.shard_id),
    }
    if event.kind is EventKind.JOIN:
        payload["tx_count"] = int(event.tx_count)
        payload["latency"] = float(event.latency)
    return payload


def event_from_json(payload: Dict) -> CommitteeEvent:
    """Inverse of :func:`event_to_json`."""
    return CommitteeEvent(
        iteration=int(payload["iteration"]),
        kind=EventKind(payload["kind"]),
        shard_id=int(payload["shard_id"]),
        tx_count=payload.get("tx_count"),
        latency=payload.get("latency"),
    )


def make_reproducer(
    outcome: StormOutcome,
    events: Optional[Sequence[CommitteeEvent]] = None,
) -> Dict:
    """A replayable JSON document for a violated outcome.

    ``events`` defaults to the outcome's full schedule; pass the shrunk
    list to store the minimal reproducer instead.
    """
    if outcome.violation is None:
        raise ValueError("a reproducer records a violation; this outcome has none")
    chosen = list(events if events is not None else outcome.events)
    return {
        "format": REPRODUCER_FORMAT,
        "config": asdict(outcome.config),
        "armed": list(outcome.armed),
        "failure": {
            "invariant": outcome.violation.invariant,
            "iteration": outcome.violation.iteration,
            "message": str(outcome.violation),
        },
        "events": [event_to_json(event) for event in chosen],
    }


def save_reproducer(path: str, reproducer: Dict) -> None:
    """Write a reproducer deterministically (sorted keys, stable floats)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reproducer, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_reproducer(path: str) -> Dict:
    """Read a single-solve or serve-loop reproducer, validating the format tag.

    The caller dispatches on ``reproducer["format"]``:
    :func:`replay_reproducer` for :data:`REPRODUCER_FORMAT`,
    :func:`repro.faultinject.serve.replay_serve_reproducer` for
    :data:`SERVE_REPRODUCER_FORMAT`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        reproducer = json.load(handle)
    if reproducer.get("format") not in (REPRODUCER_FORMAT, SERVE_REPRODUCER_FORMAT):
        raise ValueError(
            f"{path} is not a {REPRODUCER_FORMAT} or {SERVE_REPRODUCER_FORMAT} "
            f"file (format={reproducer.get('format')!r})"
        )
    return reproducer


def replay_reproducer(
    reproducer: Dict,
    telemetry: NullTelemetry = NULL_TELEMETRY,
    engine: str = "serial",
    num_workers: int = 4,
) -> StormOutcome:
    """Re-run a stored reproducer exactly (same seed, same events, same arms).

    ``engine`` selects the SE execution engine; the parallel engine is
    byte-identical to serial, so a reproducer replays to the same outcome
    on either.  Storms deliberately default to ``serial`` rather than
    ``auto``: a reproducer must replay byte-for-byte on any machine, and
    ``auto`` may route large instances to the distributional batched
    kernel.
    """
    config = StormConfig(**reproducer["config"])
    events = [event_from_json(payload) for payload in reproducer["events"]]
    return run_storm(
        config,
        events=events,
        armed=tuple(reproducer["armed"]),
        telemetry=telemetry,
        engine=engine,
        num_workers=num_workers,
    )
