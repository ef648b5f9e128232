"""Tests for the ``mvcom`` CLI."""

import json

import pytest

from repro.faultinject import (
    SERVE_REPRODUCER_FORMAT,
    ServeStormConfig,
    make_serve_reproducer,
    run_serve_storm,
    save_reproducer,
)
from repro.harness import report
from repro.harness.cli import RUNNERS, main


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for name in ("fig02", "fig08", "fig10", "theory_mixing"):
        assert name in output


def test_runner_registry_covers_every_figure():
    assert set(RUNNERS) == {
        "fig02", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
        "theory_mixing", "theory_failure",
    }


def test_invalid_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_theory_failure_end_to_end(capsys, monkeypatch, tmp_path):
    # Artifacts go to a scratch directory, never the tracked results/.
    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    assert main(["theory_failure"]) == 0
    output = capsys.readouterr().out
    assert "tv_distance" in output
    assert "finished in" in output
    assert (tmp_path / "theory_failure.json").is_file()


#: A small serve-loop storm shape for ``mvcom storm --epochs``.
SERVE_STORM = ["--events", "40", "--committees", "12", "--gamma", "2", "--iterations", "300"]


def test_storm_epochs_runs_the_serve_loop(capsys, tmp_path):
    out = str(tmp_path / "r.json")
    assert main(["storm", "--epochs", "2", "--seed", "1", "--out", out, *SERVE_STORM]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("status=survived" in line for line in lines)
    assert [line.split(":")[0].strip() for line in lines if line.startswith("  epoch ")] == [
        "epoch 0",
        "epoch 1",
    ]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flags", [["--shrink"], ["--capacity", "9000"]])
def test_storm_epochs_rejects_single_epoch_flags(capsys, flags):
    with pytest.raises(SystemExit) as exit_info:
        main(["storm", "--epochs", "2", *flags, *SERVE_STORM])
    assert exit_info.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_storm_epochs_violation_leaves_a_replayable_reproducer(capsys, tmp_path):
    out = str(tmp_path / "serve_reproducer.json")
    argv = ["storm", "--epochs", "2", "--seed", "10", "--strict", "--out", out, *SERVE_STORM]
    assert main(argv) == 1
    assert "VIOLATION in epoch 1: [strict-n-min]" in capsys.readouterr().out
    with open(out, encoding="utf-8") as handle:
        assert json.load(handle)["format"] == SERVE_REPRODUCER_FORMAT

    assert main(["storm", "--replay", out]) == 1
    replayed = capsys.readouterr().out
    assert "VIOLATION in epoch 1: [strict-n-min]" in replayed
    assert "replay reproduced the recorded failure" in replayed


def test_library_serve_reproducer_replays_through_the_cli(capsys, tmp_path):
    outcome = run_serve_storm(
        ServeStormConfig(
            seed=1,
            epochs=2,
            num_committees=16,
            gamma=2,
            max_iterations=300,
            convergence_window=100,
            events_per_epoch=40,
            leave_fraction=0.9,
            rejoin_fraction=0.0,
            min_live=1,
        )
    )
    assert outcome.status == "infeasible" and outcome.failed_epoch == 0
    path = str(tmp_path / "infeasible.json")
    save_reproducer(path, make_serve_reproducer(outcome))

    assert main(["storm", "--replay", path]) == 0
    replayed = capsys.readouterr().out
    assert "status=infeasible" in replayed
    assert "infeasible (graceful) in epoch 0" in replayed
    assert "replay reproduced the recorded failure" in replayed
