"""Eth2-scale bench: the full 1024-shard x 128-member epoch, memory-bounded.

Runs the real :func:`repro.harness.eth2scale.run_eth2scale` curve
(8 192 -> 32 768 -> 131 072 nodes, the top size being ``SHARD_COUNT =
2**10`` shards of ``MAX_PERIOD_COMMITTEE_SIZE = 2**7`` members) through
the chunked fastpath kernels and the streaming crosslink aggregator, and
asserts the tentpole budget claims:

* the curve has at least three points (the recorded scaling series);
* every size completes -- committees form and shards are submitted;
* peak RSS stays under 2 GiB at the largest size (``ru_maxrss`` is
  process-lifetime monotone, so the final reading bounds the whole run);
* no committee replays on the DES for a Byzantine view-0 primary: on the
  default loss-free network the closed-form view-change kernel covers
  them (a machine-independent count, unlike the walls).

The record lands in ``BENCH_eth2scale.json`` at the repo root, written
by the runner itself (this is the one bench whose artifact is the
deliverable, not a ``perf_recorder`` side channel).
"""

from pathlib import Path

from repro.harness.eth2scale import run_eth2scale, render_points

from conftest import emit

#: Repo-root record (next to BENCH_se_convergence.json).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_eth2scale.json"

#: The tentpole budget: a full eth2-scale epoch in under 2 GiB.
_PEAK_RSS_BUDGET_KIB = 2 * 1024 * 1024


def test_eth2scale_bench(capsys):
    record = run_eth2scale(out_path=str(BENCH_PATH))
    points = record["points"]
    emit(capsys, "eth2scale bench (chunked kernels + streaming crosslinks)")
    emit(capsys, render_points(points))

    assert len(points) >= 3, "the scaling curve needs at least three sizes"
    assert points[-1]["nodes"] >= 131_072, "the curve must reach eth2 scale"
    assert record["committee_size"] == 128
    for point in points:
        assert point["committees_formed"] > 0
        assert point["shards_submitted"] > 0
        assert point["epoch_wall_s"] > 0.0
        assert point["des_replays"].get("byzantine-primary", 0) == 0, point["des_replays"]
    peak = points[-1]["peak_rss_kib"]
    assert peak is not None, "getrusage must be available on the bench host"
    assert peak < _PEAK_RSS_BUDGET_KIB, (
        f"eth2-scale epoch peaked at {peak / 1024:.0f} MiB, "
        f"budget is {_PEAK_RSS_BUDGET_KIB / 1024:.0f} MiB"
    )
    assert BENCH_PATH.exists()
