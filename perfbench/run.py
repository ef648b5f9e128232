"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-warm --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload's trace op
set twice, untraced and then under the layer ledger, and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 0 only when every
decision passed its correctness checks.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

#: BLAS pools would add threads the single-process load does not own.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
#: End-to-end metrics printed with ``--trace 0`` (the same on every workload).
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
#: What an op is per workload, for the workload-specific metric names.
OP_NAMES = {
    "serve-warm": ("decision", "decisions_per_s"),
    "eth2-epoch": ("chain_epoch", "chain_epochs_per_s"),
    "online-churn": ("solve", "solves_per_s"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OP_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test shapes")
    return parser.parse_args(argv)


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


class Tally:
    """Correctness checks and utility quality over every executed block."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list = []
        self.quality: list = []

    def add(self, block) -> None:
        from perfbench.workloads import check_decision, quality

        for decision in block.decisions:
            self.attempted += 1
            problems = check_decision(decision)
            if problems:
                self.failed += 1
                self.messages.extend(problems)
            else:
                self.quality.append(quality(decision))
        # Block-level breaches (SLO violations, missing decisions) count as
        # one more attempted-and-failed check each.
        for problem in block.failures:
            self.attempted += 1
            self.failed += 1
            self.messages.append(problem)


class Timing(NamedTuple):
    """What a run keeps of one block once its decisions are checked."""

    wall_s: float
    latencies: list
    scale: float


def run_blocks(workload, call, tally: Tally, count=None, seconds=None, sampler=None) -> list:
    """Run ``count`` blocks, or ``workload.min_blocks`` and then more while
    the next is projected (at the last block's wall) to end within
    ``seconds``.

    Returns one :class:`Timing` per block; its ``scale`` turns the block's
    wall seconds into reference-machine seconds of program work (1.0
    without a ``sampler``; see ``calibrate.py``).  Decisions are checked
    as each block ends and then dropped.
    """
    blocks = []
    started = time.perf_counter()
    while True:
        index = len(blocks)
        if count is not None:
            if index >= count:
                break
        elif index >= workload.min_blocks:
            if time.perf_counter() - started + blocks[-1].wall_s > seconds:
                break
        block_start = time.perf_counter()
        block = workload.run_block(index, call)
        scale = sampler.normaliser(block_start, time.perf_counter()) if sampler else 1.0
        tally.add(block)
        blocks.append(Timing(block.wall_s, block.latencies, scale))
        del block
        # Warm states and replicas form reference cycles; collecting them
        # here keeps one block's garbage out of the next block's peak RSS.
        gc.collect()
    return blocks


def untraced(args, workload, import_s: float) -> tuple:
    from perfbench import calibrate
    from perfbench.workloads import plain_call

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed)
        setups.append(time.perf_counter() - start)
    setup_raw = import_s + statistics.median(setups)
    setup_scale = calibrate.scale_now()
    tally = Tally()
    with calibrate.Sampler() as sampler:
        blocks = run_blocks(workload, plain_call, tally, seconds=args.seconds, sampler=sampler)
    raw = [x for t in blocks for x in t.latencies]
    latencies = [x * t.scale for t in blocks for x in t.latencies]
    ops = len(latencies)
    rows = tally.quality
    utility_ratio = statistics.fmean(r["ratio"] for r in rows) if rows else 0.0
    utility_gap = statistics.fmean(r["gap"] for r in rows) if rows else 0.0
    metrics = {
        "setup_s": setup_raw * setup_scale,
        "op_p50_s": percentile(latencies, 50),
        "ops_per_s": ops / sum(t.wall_s * t.scale for t in blocks),
        "peak_rss_mib": peak_rss_mib(),
    }
    p90 = percentile(latencies, 90)
    beyond = sum(1 for x in latencies if x > p90)
    wall_raw = sum(t.wall_s for t in blocks)
    op_name, rate_name = OP_NAMES[workload.name]
    report = [
        "times in reference-machine seconds, raw wall seconds in brackets",
        f"{op_name}_p50_s = {metrics['op_p50_s']:.6f} s [{percentile(raw, 50):.6f}] (n={ops})",
        f"{op_name}_p90_s = {p90:.6f} s [{percentile(raw, 90):.6f}] (n={ops}, {beyond} beyond)",
        f"{rate_name} = {metrics['ops_per_s']:.4f} 1/s [{ops / wall_raw:.4f}] "
        f"({ops} ops in {len(blocks)} blocks)",
        f"utility_gap = {utility_gap:.6f} (alpha*C units, n={len(rows)})",
        f"utility_ratio = {utility_ratio:.6f} ratio",
        f"fail_frac = {tally.failed / max(tally.attempted, 1):.6f} "
        f"({tally.failed}/{tally.attempted})",
        f"setup_s = {metrics['setup_s']:.4f} s [{setup_raw:.4f}] (imports {import_s:.4f} s "
        f"+ median of {SETUP_REPEATS} input builds {[round(s, 4) for s in setups]})",
        f"peak_rss_mib = {metrics['peak_rss_mib']:.1f} MiB",
        f"calibration scale per block = {[round(t.scale, 3) for t in blocks]} "
        f"({len(sampler.durations)} kernel samples)",
    ]
    return tally, report, metrics, END_TO_END_UNITS


def traced(args, workload) -> tuple:
    from perfbench.layers import PER_LAYER_UNITS, instrument, layer_metrics
    from perfbench.ledger import Ledger
    from perfbench.workloads import plain_call

    workload.setup(args.seed)
    tally = Tally()
    count = workload.trace_blocks
    plain = run_blocks(workload, plain_call, tally, count=count)

    ledger = Ledger()

    def traced_call(fn, *call_args, **kwargs):
        start = time.perf_counter()
        result = ledger.op(fn, *call_args, **kwargs)
        return result, time.perf_counter() - start

    instrument(ledger)
    try:
        traced_blocks = run_blocks(workload, traced_call, tally, count=count)
    finally:
        ledger.restore()
    traced_wall = sum(t.wall_s for t in traced_blocks)
    overhead = traced_wall / sum(t.wall_s for t in plain) - 1.0
    metrics = layer_metrics(ledger, traced_wall, overhead)

    if metrics["engine.picks_parallel"]:
        # The load is one process by design; a pool would break that premise.
        tally.attempted += 1
        tally.failed += 1
        tally.messages.append("engine=auto picked the process pool (engine.picks_parallel > 0)")

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    ledger_path = out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"
    layer_self = ledger.layer_self_time()
    ledger.write(
        str(ledger_path),
        {"workload": workload.name, "seed": args.seed, "traced_wall_s": traced_wall,
         "layer_self_s": layer_self},
    )
    report = [f"{name} = {value:.6g} {PER_LAYER_UNITS[name]}" for name, value in metrics.items()]
    report.append(
        "layer self time: " + ", ".join(f"{k}={v:.3f}s" for k, v in sorted(layer_self.items()))
    )
    report.extend(intent_lines(workload.name, metrics, traced_wall))
    report.append(f"ledger written to {ledger_path.relative_to(ROOT)}")
    return tally, report, metrics, PER_LAYER_UNITS


def intent_lines(name: str, m: dict, wall: float) -> list:
    """Whether the traced run still shows what the workload was chosen for."""
    picks = m["engine.picks_serial"] + m["engine.picks_vectorized"] + m["engine.picks_parallel"]
    checks = {
        "serve-warm": [
            ("every pick is vectorized", picks > 0 and m["engine.picks_vectorized"] == picks),
            ("obs.records > 0", m["obs.records"] > 0),
        ],
        "eth2-epoch": [
            ("chain.des_replays > 0", m["chain.des_replays"] > 0),
            ("se.solve_s < 10% of the wall", m["se.solve_s"] < 0.1 * wall),
        ],
        "online-churn": [
            ("every pick is serial", picks > 0 and m["engine.picks_serial"] == picks),
            ("se.events > 0", m["se.events"] > 0),
        ],
    }[name]
    return [f"intent: {label}: {'yes' if held else 'NO'}" for label, held in checks]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import numpy

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    import_s = time.perf_counter() - _STARTED

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
    }
    print("meta: " + json.dumps(meta, sort_keys=True))
    if args.trace:
        tally, report, metrics, units = traced(args, workload)
    else:
        tally, report, metrics, units = untraced(args, workload, import_s)
    for line in report:
        print("  " + line)
    for message in tally.messages[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
