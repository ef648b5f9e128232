"""Parallel figure-sweep runner.

The per-figure experiment loops in :mod:`repro.harness.experiments` are
embarrassingly parallel: fig10/fig13 iterate independent seeds, fig11
independent committee-set sizes, fig12/fig14 independent alphas.  Each
loop body is factored into a module-level *trial* function (picklable, per
lint rule MV008) that takes one task tuple and returns plain record data;
:func:`map_trials` fans the tasks out over the spawn-safe process pool
built in :mod:`repro.core.engine` and hands the results back **in task
order**, so the driver-side merge -- and therefore the written artifact --
is byte-identical to the serial runner.

Determinism argument: every trial re-derives its workload and solver RNG
from the seeds in its task tuple alone (no shared mutable state crosses
the process boundary), and the serial runner executes the *same* trial
functions through the same merge code, so ``parallel=True`` changes
wall-clock only.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.core.engine import clamp_workers, shared_pool

T = TypeVar("T")

#: Figures whose runners accept ``parallel=`` / ``sweep_workers=``.
SWEEP_FIGURES = ("fig10", "fig11", "fig12", "fig13", "fig14")

#: Default pool size when ``--sweep-workers auto`` lands on a multi-core box.
AUTO_SWEEP_WORKERS = 4

#: ``auto`` keeps the serial loop below this core count, where the pool's
#: pickling cost has little parallelism to pay for it.
AUTO_SWEEP_MIN_CPUS = 3


def resolve_sweep_workers(
    requested: Union[int, str, None] = "auto",
    cpu_count: Optional[int] = None,
) -> Tuple[int, Optional[str]]:
    """Resolve a ``--sweep-workers`` value to ``(workers, warning)``.

    ``"auto"`` (the default) keeps the sweep serial when the box exposes
    ``cpu_count <= 2`` and otherwise grants
    ``min(AUTO_SWEEP_WORKERS, cpu_count)``.  An explicit integer is
    honoured (clamped to the core count, like
    :func:`repro.core.engine.clamp_workers`) but comes back with a fixed
    one-line warning on such a low-core box, where ``auto`` would stay
    serial, so ``--parallel`` never silently overrides that choice.  The
    decision and the warning depend on the arguments alone.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if requested in ("auto", None):
        if cpus < AUTO_SWEEP_MIN_CPUS:
            return 1, None
        return min(AUTO_SWEEP_WORKERS, cpus), None
    requested = int(requested)
    workers = clamp_workers(requested, cpu_count=cpus)
    if requested > 1 and cpus < AUTO_SWEEP_MIN_CPUS:
        return workers, (
            f"warning: parallel sweep requested {requested} workers on a "
            f"{cpus}-cpu box (auto stays serial below {AUTO_SWEEP_MIN_CPUS} cpus); "
            f"granting {workers} — use --sweep-workers auto to stay serial here"
        )
    return workers, None


def map_trials(
    trial: Callable[..., T],
    tasks: Sequence[tuple],
    parallel: bool = False,
    num_workers: int = 4,
) -> List[T]:
    """Run ``trial(*task)`` for each task, serially or over the pool.

    Results always come back in task order -- ``parallel`` trades wall
    clock only, never artifact content.  ``trial`` must be a module-level
    function and each task tuple picklable (spawn-safe dispatch).
    """
    if not parallel or num_workers <= 1 or len(tasks) <= 1:
        return [trial(*task) for task in tasks]
    pool = shared_pool(num_workers)
    futures = [pool.submit(trial, *task) for task in tasks]
    return [future.result() for future in futures]


def run_sweep(
    figure: str,
    preset=None,
    parallel: bool = True,
    num_workers: Union[int, str] = "auto",
) -> dict:
    """Run one sweep figure end to end, fanning trials over the pool.

    Thin dispatch used by the CLI and the benches; equivalent to calling
    the figure's runner with ``parallel=``/``sweep_workers=`` directly.
    ``num_workers`` accepts ``"auto"`` (see :func:`resolve_sweep_workers`).
    """
    from repro.harness import experiments  # deferred: experiments imports us

    if figure not in SWEEP_FIGURES:
        raise ValueError(f"not a sweep figure: {figure!r} (expected one of {SWEEP_FIGURES})")
    num_workers, _ = resolve_sweep_workers(num_workers)
    runners = {
        "fig10": experiments.run_fig10_valuable_degree,
        "fig11": experiments.run_fig11_vary_committees,
        "fig12": experiments.run_fig12_vary_alpha,
        "fig13": experiments.run_fig13_utility_distribution,
        "fig14": experiments.run_fig14_online_joining,
    }
    kwargs = {"parallel": parallel, "sweep_workers": num_workers}
    if preset is not None:
        return runners[figure](preset, **kwargs)
    return runners[figure](**kwargs)
