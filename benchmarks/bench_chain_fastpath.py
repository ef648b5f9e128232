"""Chain fastpath bench: closed-form PBFT/formation kernels + parallel sweeps.

Two claims from the chain substrate (:mod:`repro.chain.fastpath`) and the
sweep runner (:mod:`repro.harness.parallel`):

* ``fastpath`` replaces the per-message DES with one batched
  order-statistics kernel call per epoch (Byzantine-primary committees
  run its closed-form view change in the same call).  Both engines are timed back to back on
  the Fig. 2 campaign at every network size, so the speedup at the
  largest size IS asserted (same-machine ratio); distributional parity
  is asserted via two-sample KS on the formation and consensus latency
  samples at alpha=0.01 (:mod:`repro.metrics.ks` -- the fastpath is
  validated statistically, not byte-wise, see the module docstring).
* the parallel sweep runner fans figure trials over the spawn-safe
  process pool and must stay **byte-identical** to the serial loop --
  asserted hard here.  Its wall-clock speedup is *recorded*, not
  asserted: shared CI runners routinely expose a single core.
  ``cpu_count`` rides along so a reader can judge the number.

Records land in ``BENCH_se_convergence.json`` under ``chain_fastpath``.
"""

import dataclasses
import json
import os
import time

from repro.chain.measurement import measure_two_phase_latency
from repro.chain.params import ChainParams
from repro.harness import experiments
from repro.harness.artifacts import _ArtifactEncoder
from repro.harness.presets import PRESETS
from repro.metrics.ks import ks_critical_value, ks_pvalue, ks_statistic

#: Fig. 2 campaign shape (mirrors PRESETS["fig02"]).
_FIG02 = PRESETS["fig02"]
_SIZES = _FIG02.extras["network_sizes"]
_EPOCHS = int(_FIG02.extras["epochs_per_size"])
_COMMITTEE_SIZE = int(_FIG02.extras["committee_size"])
#: min-of-N timing repetitions per (engine, size) cell.
_REPS = 5


def _timed_measurement(engine, num_nodes):
    """Best wall over ``_REPS`` runs of one Fig. 2 size, plus the samples."""
    base = ChainParams(
        num_nodes=min(_SIZES), committee_size=_COMMITTEE_SIZE, seed=_FIG02.seeds[0]
    )
    best_wall, measurement = None, None
    for _ in range(_REPS):
        started = time.perf_counter()
        (measurement,) = measure_two_phase_latency(
            base, [num_nodes], epochs_per_size=_EPOCHS, chain_engine=engine
        )
        wall = time.perf_counter() - started
        best_wall = wall if best_wall is None else min(best_wall, wall)
    return best_wall, measurement


def _ks_cell(sample_a, sample_b):
    """(statistic, p-value, rejected-at-0.01) for one latency comparison."""
    d_stat = ks_statistic(sample_a, sample_b)
    n, m = len(sample_a), len(sample_b)
    return {
        "d": d_stat,
        "p": ks_pvalue(d_stat, n, m),
        "rejected": d_stat >= ks_critical_value(n, m, alpha=0.01),
    }


def test_chain_fastpath_bench(perf_recorder):
    # ---- DES vs fastpath across the Fig. 2 campaign ------------------- #
    # Warm both engines (numpy dispatch, geometry caches) off the clock.
    for engine in ("des", "fastpath"):
        _timed_measurement(engine, min(_SIZES))

    per_size = []
    for num_nodes in _SIZES:
        des_wall, des_m = _timed_measurement("des", num_nodes)
        fast_wall, fast_m = _timed_measurement("fastpath", num_nodes)
        formation_ks = _ks_cell(des_m.formation_latencies, fast_m.formation_latencies)
        consensus_ks = _ks_cell(des_m.consensus_latencies, fast_m.consensus_latencies)
        per_size.append(
            {
                "num_nodes": num_nodes,
                "des_wall_s": des_wall,
                "fastpath_wall_s": fast_wall,
                "speedup": des_wall / fast_wall,
                "formation_ks_p": formation_ks["p"],
                "consensus_ks_p": consensus_ks["p"],
            }
        )
        # Distributional parity at every size, both latency terms.
        assert not formation_ks["rejected"], f"formation KS rejected at n={num_nodes}"
        assert not consensus_ks["rejected"], f"consensus KS rejected at n={num_nodes}"

    largest = per_size[-1]
    assert largest["num_nodes"] == max(_SIZES)
    # Acceptance floor: >= 5x at the largest Fig. 2 network size
    # (same-machine ratio, min-of-reps on both sides).
    assert largest["speedup"] >= 5.0, f"fastpath speedup {largest['speedup']:.2f}x < 5x"

    # ---- sweep runner: serial vs parallel, byte-identical ------------- #
    sweep_preset = dataclasses.replace(
        PRESETS["fig10"],
        seeds=(1, 2, 3),
        num_committees=12,
        capacity=10_000,
        se_iterations=80,
        baseline_iterations=80,
        convergence_window=40,
    )
    started = time.perf_counter()
    serial = experiments.run_fig10_valuable_degree(sweep_preset, parallel=False)
    sweep_serial_wall = time.perf_counter() - started
    started = time.perf_counter()
    pooled = experiments.run_fig10_valuable_degree(
        sweep_preset, parallel=True, sweep_workers=3
    )
    sweep_parallel_wall = time.perf_counter() - started
    sweep_byte_identical = json.dumps(serial, cls=_ArtifactEncoder, sort_keys=True) == (
        json.dumps(pooled, cls=_ArtifactEncoder, sort_keys=True)
    )
    assert sweep_byte_identical

    print()
    print("chain fastpath bench (Fig. 2 campaign, DES vs closed-form kernel)")
    print(f"  {'nodes':>6} {'des':>9} {'fastpath':>9} {'speedup':>8} "
          f"{'KS p (form)':>12} {'KS p (cons)':>12}")
    for row in per_size:
        print(
            f"  {row['num_nodes']:>6} {row['des_wall_s'] * 1e3:>7.1f}ms "
            f"{row['fastpath_wall_s'] * 1e3:>7.1f}ms {row['speedup']:>7.2f}x "
            f"{row['formation_ks_p']:>12.3f} {row['consensus_ks_p']:>12.3f}"
        )
    print(f"  sweep fig10 (3 seeds, {os.cpu_count()} cpus): "
          f"serial {sweep_serial_wall:.2f}s, parallel {sweep_parallel_wall:.2f}s, "
          f"byte-identical {sweep_byte_identical}")

    perf_recorder(
        "chain_fastpath",
        cpu_count=os.cpu_count(),
        committee_size=_COMMITTEE_SIZE,
        epochs_per_size=_EPOCHS,
        timing_reps=_REPS,
        per_size=per_size,
        largest_size_speedup=largest["speedup"],
        sweep_figure="fig10",
        sweep_trials=len(sweep_preset.seeds),
        sweep_workers=3,
        sweep_serial_wall_s=sweep_serial_wall,
        sweep_parallel_wall_s=sweep_parallel_wall,
        sweep_speedup=sweep_serial_wall / sweep_parallel_wall,
        sweep_byte_identical=sweep_byte_identical,
    )
