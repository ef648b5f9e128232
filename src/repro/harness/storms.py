"""``mvcom storm``: churn-storm fault injection from the command line.

Harness glue around :mod:`repro.faultinject`: builds the storm config
from CLI flags, owns the telemetry hub (rule MV007 — the faultinject
package only *receives* one), and renders a human summary.  ``--epochs 1``
(the default) batters one SE solve (:func:`~repro.faultinject.run_storm`);
on a violation ``--shrink`` cuts the schedule to a 1-minimal reproducer.
``--epochs N`` with N > 1 batters the warm-started serve loop
(:func:`~repro.faultinject.run_serve_storm`) and writes its whole event
history as the reproducer on every violation.  Either reproducer goes to
``--out`` so CI can attach it as an artifact, and ``--replay`` reruns
either kind.

Exit codes: 0 for ``survived`` (and for graceful ``infeasible``
degradation), 1 for a ``violated`` invariant — so ``mvcom storm`` slots
directly into a CI job.
"""

from __future__ import annotations

from repro.faultinject import (
    DEFAULT_ARMED,
    REPRODUCER_FORMAT,
    ServeStormConfig,
    ServeStormOutcome,
    StormConfig,
    StormOutcome,
    load_reproducer,
    make_reproducer,
    make_serve_reproducer,
    replay_reproducer,
    replay_serve_reproducer,
    run_serve_storm,
    run_storm,
    save_reproducer,
    shrink_storm,
)
from repro.harness.tracing import build_telemetry
from repro.obs.telemetry import NULL_TELEMETRY

#: Default path for the shrunk reproducer artifact.
DEFAULT_REPRODUCER_PATH = "storm_reproducer.json"


def config_from_args(args) -> StormConfig:
    """Map the CLI namespace onto a single-solve :class:`StormConfig`."""
    return StormConfig(
        seed=args.seed,
        num_events=args.events,
        num_committees=args.committees,
        capacity=args.capacity,
        gamma=args.gamma,
        max_iterations=args.iterations,
        convergence_window=max(args.iterations // 4, 50),
    )


def serve_config_from_args(args) -> ServeStormConfig:
    """Map the CLI namespace onto a multi-epoch :class:`ServeStormConfig`.

    ``--events`` counts the whole storm: each epoch gets an even share
    (at least one event).
    """
    return ServeStormConfig(
        seed=args.seed,
        epochs=args.epochs,
        num_committees=args.committees,
        events_per_epoch=max(args.events // args.epochs, 1),
        gamma=args.gamma,
        max_iterations=args.iterations,
        convergence_window=max(args.iterations // 4, 50),
    )


def _armed_from_args(args):
    armed = DEFAULT_ARMED
    if getattr(args, "strict", False):
        armed = armed + ("strict-n-min",)
    return armed


def _print_outcome(outcome: StormOutcome) -> None:
    config = outcome.config
    print(
        f"storm: seed={config.seed} events={len(outcome.events)} "
        f"committees={config.num_committees} gamma={config.gamma}"
    )
    print(
        f"  status={outcome.status}  boundaries={len(outcome.boundaries)}"
        f"  invariant-checks={outcome.checks_run}"
        f"  theorem2-checks={outcome.theorem2_checked}"
    )
    if outcome.result is not None:
        result = outcome.result
        print(
            f"  iterations={result.iterations}  converged={result.converged}"
            f"  best_utility={result.best_utility:.2f}"
            f"  best_count={result.best_count}  best_weight={result.best_weight}"
        )
    if outcome.violation is not None:
        print(f"  VIOLATION: {outcome.violation}")
    if outcome.infeasible_reason is not None:
        print(f"  infeasible (graceful): {outcome.infeasible_reason}")


def _handle_violation(outcome: StormOutcome, args, telemetry) -> None:
    if not getattr(args, "shrink", False):
        return
    print(f"  shrinking {len(outcome.events)}-event schedule ...")
    minimal, probes = shrink_storm(outcome, telemetry=telemetry)
    print(f"  minimal reproducer: {len(minimal)} events ({probes} replay probes)")
    for event in sorted(minimal, key=lambda e: e.iteration):
        print(f"    it={event.iteration:5d}  {event.kind.name:5s}  shard={event.shard_id}")
    out_path = args.out or DEFAULT_REPRODUCER_PATH
    save_reproducer(out_path, make_reproducer(outcome, minimal))
    print(f"  [reproducer written to {out_path}]")


def _print_serve_outcome(outcome: ServeStormOutcome) -> None:
    config = outcome.config
    print(
        f"serve storm: seed={config.seed} epochs={config.epochs} "
        f"committees={config.num_committees} gamma={config.gamma} warm={config.warm}"
    )
    print(
        f"  status={outcome.status}  epochs-completed={len(outcome.results)}"
        f"  invariant-checks={outcome.checks_run}"
    )
    for epoch, events in enumerate(outcome.events_by_epoch):
        result = outcome.results[epoch] if epoch < len(outcome.results) else None
        utility = f"{result.best_utility:.2f}" if result else "-"
        print(
            f"  epoch {epoch}: events={len(events)}"
            f"  boundaries={len(outcome.boundaries_by_epoch[epoch])}"
            f"  iterations={result.iterations if result else '-'}"
            f"  utility={utility}"
        )
    if outcome.violation is not None:
        print(f"  VIOLATION in epoch {outcome.failed_epoch}: {outcome.violation}")
    if outcome.infeasible_reason is not None:
        print(
            f"  infeasible (graceful) in epoch {outcome.failed_epoch}: "
            f"{outcome.infeasible_reason}"
        )


def _run_serve(args, armed, telemetry) -> int:
    outcome = run_serve_storm(serve_config_from_args(args), armed=armed, telemetry=telemetry)
    _print_serve_outcome(outcome)
    if outcome.status != "violated":
        return 0
    out_path = args.out or DEFAULT_REPRODUCER_PATH
    save_reproducer(out_path, make_serve_reproducer(outcome))
    print(f"  [reproducer written to {out_path}]")
    return 1


def _run_replay(args, telemetry) -> int:
    reproducer = load_reproducer(args.replay)
    failure = reproducer.get("failure", {})
    recorded = failure.get("invariant")
    print(f"replaying {args.replay}")
    if reproducer["format"] == REPRODUCER_FORMAT:
        print(f"  recorded failure: {failure.get('message')}")
        outcome = replay_reproducer(reproducer, telemetry=telemetry)
        _print_outcome(outcome)
        reproduced = outcome.status == "violated" and outcome.signature == recorded
    else:
        detail = failure.get("message") if recorded else failure.get("infeasible_reason")
        print(f"  recorded failure in epoch {failure.get('epoch')}: {detail}")
        outcome = replay_serve_reproducer(reproducer, telemetry=telemetry)
        _print_serve_outcome(outcome)
        replayed = outcome.violation.invariant if outcome.violation else None
        reproduced = (
            outcome.status == ("violated" if recorded else "infeasible")
            and outcome.failed_epoch == failure.get("epoch")
            and replayed == recorded
        )
    if reproduced:
        print("  replay reproduced the recorded failure")
    else:
        print("  replay did NOT reproduce the recorded failure")
    return 1 if outcome.status == "violated" else 0


def run_storm_cli(args) -> int:
    """Entry point for ``mvcom storm``; returns the process exit code."""
    telemetry = build_telemetry(args.trace) if args.trace else NULL_TELEMETRY
    try:
        if args.replay:
            return _run_replay(args, telemetry)
        armed = _armed_from_args(args)
        if args.epochs is not None and args.epochs > 1:
            return _run_serve(args, armed, telemetry)
        outcome = run_storm(config_from_args(args), armed=armed, telemetry=telemetry)
        _print_outcome(outcome)
        if outcome.status == "violated":
            _handle_violation(outcome, args, telemetry)
            return 1
        return 0
    finally:
        if telemetry is not NULL_TELEMETRY:
            telemetry.close()
            if args.trace:
                print(f"[trace written to {args.trace}]")
