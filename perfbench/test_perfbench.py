"""Smoke tests of the benchmark: tiny shapes of every workload, both modes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    from perfbench.workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_spec_metrics(workload, trace, section):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert '"cpu_count"' in done.stdout.splitlines()[0]


def test_trace_restores_every_wrapped_attribute():
    from perfbench.layers import instrument
    from perfbench.ledger import Ledger
    from repro.core import engine, se
    from repro.obs.telemetry import Telemetry

    before = (se.resize_to_cardinality, engine.run_serial, Telemetry.event,
              se.StochasticExploration.solve)
    ledger = Ledger()
    instrument(ledger)
    assert ledger.patched > 20
    assert se.resize_to_cardinality is not before[0]
    ledger.restore()
    after = (se.resize_to_cardinality, engine.run_serial, Telemetry.event,
             se.StochasticExploration.solve)
    assert after == before and ledger.patched == 0


def test_self_time_partitions_the_op():
    from perfbench.ledger import Ledger

    class Layer:
        def inner(self):
            sum(range(20000))

        def outer(self):
            self.inner()
            self.inner()

    ledger = Ledger()
    ledger.wrap_method(Layer, "outer", "a.outer", record=True)
    ledger.wrap_method(Layer, "inner", "b.inner")
    try:
        ledger.op(Layer().outer)
    finally:
        ledger.restore()
    assert ledger.calls["b.inner"] == 2
    (op, outer) = ledger.spans
    assert outer[3] == 0 and op[4] == outer[4] == 0
    assert sum(ledger.layer_self_time().values()) == pytest.approx(
        outer[2] - outer[1], rel=1e-9
    )


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("serve-warm", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_sampler_scales_and_restores_the_alarm_handler():
    import signal
    import time

    from perfbench import calibrate

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.7:
            sum(range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.durations) >= 2
    assert 0 < sampler.normaliser(start, end) < 10
