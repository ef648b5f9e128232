"""Deterministic fault injection for the dynamic-events path.

The paper exercises dynamic committee events with single hand-authored
scenarios (Figs. 9a/9b/14); this package batters the same code with
seeded *churn storms* — bursty correlated leave/join sequences, duplicate
and out-of-order notifications, membership swings to the ``N_min`` floor —
while event-boundary invariants (feasibility, replica conservation,
membership bookkeeping, Theorem-2 perturbation sanity, trace monotonicity)
stay armed.  A failing storm shrinks to a 1-minimal replayable JSON
reproducer.

Entry points: :func:`run_storm` (one SE solve), :func:`run_serve_storm`
(the warm-started multi-epoch serve loop), ``mvcom storm`` on the command
line (``--epochs N`` with N > 1 runs the serve loop).  Both kinds of
failure leave a replayable reproducer, written by :func:`save_reproducer`
and read back by :func:`load_reproducer`.
"""

from repro.faultinject.invariants import (
    DEFAULT_INVARIANTS,
    KNOWN_INVARIANTS,
    StormInvariantViolation,
    StormProbe,
    check_trace_monotone,
)
from repro.faultinject.runner import (
    DEFAULT_ARMED,
    REPRODUCER_FORMAT,
    StormOutcome,
    build_storm_instance,
    event_from_json,
    event_to_json,
    load_reproducer,
    make_reproducer,
    replay_reproducer,
    run_storm,
    save_reproducer,
    shrink_storm,
)
from repro.faultinject.serve import (
    SERVE_REPRODUCER_FORMAT,
    ServeStormConfig,
    ServeStormOutcome,
    make_serve_reproducer,
    replay_serve_reproducer,
    run_serve_storm,
)
from repro.faultinject.shrink import shrink_events
from repro.faultinject.storm import StormConfig, generate_storm

__all__ = [
    "DEFAULT_ARMED",
    "SERVE_REPRODUCER_FORMAT",
    "ServeStormConfig",
    "ServeStormOutcome",
    "make_serve_reproducer",
    "replay_serve_reproducer",
    "run_serve_storm",
    "DEFAULT_INVARIANTS",
    "KNOWN_INVARIANTS",
    "REPRODUCER_FORMAT",
    "StormConfig",
    "StormInvariantViolation",
    "StormOutcome",
    "StormProbe",
    "build_storm_instance",
    "check_trace_monotone",
    "event_from_json",
    "event_to_json",
    "generate_storm",
    "load_reproducer",
    "make_reproducer",
    "replay_reproducer",
    "run_storm",
    "save_reproducer",
    "shrink_events",
    "shrink_storm",
]
