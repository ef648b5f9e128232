"""Layer boundaries of the traced run and the per-layer metrics they give.

Each boundary is a public function or method of one ``repro`` module; the
span name's first component names the layer.  The comment on each metric
says which end-to-end metric it should move, and on which workload (see
``perfbench/README.md`` for the whole map).
"""

from __future__ import annotations

from typing import Dict

from perfbench.ledger import Ledger

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "engine.race_s": "s",
    "engine.rounds_per_s": "1/s",
    "engine.setup_s": "s",
    "engine.picks_serial": "count",
    "engine.picks_vectorized": "count",
    "engine.picks_parallel": "count",
    "repair.resize_calls": "count",
    "repair.resize_s": "s",
    "repair.swap_improve_s": "s",
    "se.solves": "count",
    "se.rounds": "count",
    "se.events": "count",
    "se.solve_s": "s",
    "obs.records": "count",
    "obs.emit_s": "s",
    "data.advance_s": "s",
    "chain.formation_s": "s",
    "chain.stage3_s": "s",
    "chain.kernel_s": "s",
    "chain.des_replays": "count",
    "chain.des_replay_frac": "ratio",
    "sim.des_s": "s",
    "sim.des_steps": "count",
    "chain.net_sends": "count",
    "chain.final_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _after_solve(ledger: Ledger, args, kwargs, result) -> None:
    ledger.counts["se.rounds"] += result.iterations
    ledger.counts["se.events"] += len(result.events_applied)


def _after_select(ledger: Ledger, args, kwargs, result) -> None:
    ledger.counts[f"engine.picks_{result[0]}"] += 1


def _after_stage3(ledger: Ledger, args, kwargs, result) -> None:
    committees = args[0] if args else kwargs["committees"]
    ledger.counts["chain.stage3_committees"] += len(committees)


def instrument(ledger: Ledger) -> None:
    """Wrap every layer boundary; undo with :meth:`Ledger.restore`."""
    from repro.chain import committee, elastico, final, network, pbft
    from repro.core import engine, repair, se
    from repro.data import stream
    from repro.harness import serve
    from repro.obs import telemetry
    from repro.sim import engine as sim_engine

    # repro.harness: the serve loop itself (stream feed, sinks, SLIs).
    ledger.wrap_function(serve, "run_serve", "harness.serve", record=True)
    # repro.data: the mempool feeder of each served epoch.
    ledger.wrap_method(stream.EpochStream, "advance", "data.advance", record=True)
    # repro.core.se / engine / repair: solve -> bootstrap/adoption -> race.
    ledger.wrap_method(
        se.StochasticExploration, "solve", "se.solve", record=True, after=_after_solve
    )
    ledger.wrap_function(engine, "run_engine", "engine.run", record=True)
    ledger.wrap_function(engine, "select_engine", "engine.select", after=_after_select)
    for race in ("run_serial", "run_vectorized", "run_parallel"):
        ledger.wrap_function(engine, race, "engine.race", record=True)
    ledger.wrap_function(repair, "resize_to_cardinality", "repair.resize")
    ledger.wrap_function(repair, "greedy_swap_improve", "repair.swap_improve")
    # repro.obs: the hub's public record emitters (sinks run inside them).
    for emitter in ("event", "count", "observe", "record_span"):
        ledger.wrap_method(telemetry.Telemetry, emitter, "obs.emit")
    # repro.chain / repro.sim: the five-stage epoch and its DES fallbacks.
    ledger.wrap_method(
        elastico.ElasticoSimulation, "run_epoch_streaming", "chain.epoch", record=True
    )
    ledger.wrap_method(
        elastico.ElasticoSimulation, "form_committees", "chain.formation", record=True
    )
    ledger.wrap_function(
        committee, "run_intra_consensus_streaming", "chain.stage3", record=True,
        after=_after_stage3,
    )
    ledger.wrap_method(final.FinalCommittee, "run_streaming", "chain.final", record=True)
    ledger.wrap_method(pbft.PbftRound, "__init__", "chain.des_replay")
    ledger.wrap_method(sim_engine.SimulationEngine, "step", "sim.des")
    ledger.wrap_method(sim_engine.SimulationEngine, "run", "sim.des")
    ledger.count_method(network.Network, "send", "chain.net_sends")


def layer_metrics(ledger: Ledger, traced_wall: float, overhead: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, keyed as in PER_LAYER_UNITS.

    ``traced_wall`` is the pass's wall; ``overhead`` its tracing overhead
    against the untraced pass, measured by the caller.
    """
    counts = ledger.counts
    race = ledger.t("engine.race")
    rounds = counts["se.rounds"]
    stage3 = ledger.t("chain.stage3")
    des_in_stage3 = ledger.under_time("chain.des_replay", "chain.stage3") + ledger.under_time(
        "sim.des", "chain.stage3"
    )
    replays = ledger.under_calls("chain.des_replay", "chain.stage3")
    entered = counts["chain.stage3_committees"]
    layer_self = sum(ledger.layer_self_time().values())
    metrics = {
        "engine.race_s": race,
        "engine.rounds_per_s": rounds / race if race > 0 else 0.0,
        "engine.setup_s": ledger.t("engine.run") - race,
        "engine.picks_serial": counts["engine.picks_serial"],
        "engine.picks_vectorized": counts["engine.picks_vectorized"],
        "engine.picks_parallel": counts["engine.picks_parallel"],
        "repair.resize_calls": ledger.calls["repair.resize"],
        "repair.resize_s": ledger.t("repair.resize"),
        "repair.swap_improve_s": ledger.t("repair.swap_improve"),
        "se.solves": ledger.calls["se.solve"],
        "se.rounds": rounds,
        "se.events": counts["se.events"],
        "se.solve_s": ledger.t("se.solve"),
        "obs.records": ledger.calls["obs.emit"],
        "obs.emit_s": ledger.t("obs.emit"),
        "data.advance_s": ledger.t("data.advance"),
        "chain.formation_s": ledger.t("chain.formation"),
        "chain.stage3_s": stage3,
        "chain.kernel_s": stage3 - des_in_stage3,
        "chain.des_replays": replays,
        "chain.des_replay_frac": replays / entered if entered else 0.0,
        "sim.des_s": ledger.t("sim.des"),
        "sim.des_steps": ledger.calls["sim.des"],
        "chain.net_sends": counts["chain.net_sends"],
        "chain.final_s": ledger.t("chain.final") - ledger.child_span_time("se.solve", "chain.final"),
        "trace.coverage": layer_self / traced_wall if traced_wall > 0 else 0.0,
        "trace.overhead": overhead,
    }
    return {name: float(value) for name, value in metrics.items()}
