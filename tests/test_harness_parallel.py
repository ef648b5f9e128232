"""Tests for the parallel figure-sweep runner (repro.harness.parallel)."""

import argparse
import dataclasses
import filecmp
import json
import os

import pytest

from repro.harness import experiments
from repro.harness.artifacts import _ArtifactEncoder, write_artifact
from repro.harness.cli import runner_kwargs
from repro.harness.parallel import (
    SWEEP_FIGURES,
    map_trials,
    resolve_sweep_workers,
    run_sweep,
)
from repro.harness.presets import PRESETS


def tiny(preset_name, **overrides):
    """Shrink a paper preset to seconds-scale for parity testing."""
    base = dict(
        num_committees=12,
        capacity=10_000,
        se_iterations=80,
        baseline_iterations=80,
        convergence_window=40,
    )
    base.update(overrides)
    return dataclasses.replace(PRESETS[preset_name], **base)


class TestMapTrials:
    def test_serial_and_parallel_results_identical(self):
        preset = tiny("fig10", seeds=(1, 2, 3))
        tasks = [(preset, seed) for seed in preset.seeds]
        serial = map_trials(experiments._fig10_trial, tasks, parallel=False)
        pooled = map_trials(experiments._fig10_trial, tasks, parallel=True, num_workers=3)
        assert serial == pooled  # same values, same task order

    def test_single_task_stays_serial(self):
        preset = tiny("fig10", seeds=(1,))
        result = map_trials(
            experiments._fig10_trial, [(preset, 1)], parallel=True, num_workers=4
        )
        assert len(result) == 1 and "SE" in result[0]


class TestSweepArtifactByteIdentity:
    def test_fig10_artifacts_byte_identical(self, tmp_path):
        """The written artifact -- not just the in-memory dict -- must be
        byte-for-byte identical between serial and parallel runs."""
        preset = tiny("fig10", seeds=(1, 2))
        serial = experiments.run_fig10_valuable_degree(preset, parallel=False)
        pooled = experiments.run_fig10_valuable_degree(preset, parallel=True, sweep_workers=2)
        clock = lambda: 1_700_000_000.0
        path_a = write_artifact(
            "fig10", serial, preset, results_dir=str(tmp_path / "serial"), clock=clock
        )
        path_b = write_artifact(
            "fig10", pooled, preset, results_dir=str(tmp_path / "parallel"), clock=clock
        )
        assert filecmp.cmp(path_a, path_b, shallow=False)
        assert os.path.getsize(path_a) > 0

    def test_fig13_panels_identical(self):
        preset = tiny("fig13", seeds=(1, 2), extras={"alphas": (1.5, 5)})
        serial = experiments.run_fig13_utility_distribution(preset, parallel=False)
        pooled = experiments.run_fig13_utility_distribution(
            preset, parallel=True, sweep_workers=4
        )
        assert serial == pooled
        assert list(serial["panels"]) == ["alpha=1.5", "alpha=5"]


class TestRunSweep:
    def test_dispatch_matches_direct_runner(self):
        preset = tiny("fig12", extras={"alphas": (1.5,)})
        via_registry = run_sweep("fig12", preset, parallel=False)
        direct = experiments.run_fig12_vary_alpha(preset, parallel=False)
        # traces are numpy arrays; compare through the artifact encoder
        assert json.dumps(via_registry, cls=_ArtifactEncoder) == json.dumps(
            direct, cls=_ArtifactEncoder
        )

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_sweep("fig08")

    def test_registry_covers_the_sweep_figures(self):
        assert SWEEP_FIGURES == ("fig10", "fig11", "fig12", "fig13", "fig14")


class TestResolveSweepWorkers:
    def test_warning_reads_no_file(self, monkeypatch, tmp_path):
        """The low-core warning is a fixed text: it opens no file (no
        bench record, nothing relative to the package) and does not
        depend on the working directory."""
        expected = resolve_sweep_workers(4, cpu_count=2)

        def no_files(*args, **kwargs):
            raise AssertionError("resolve_sweep_workers opened a file")

        monkeypatch.setattr("builtins.open", no_files)
        monkeypatch.setattr("io.open", no_files)
        monkeypatch.setattr("pathlib.Path.open", no_files)
        monkeypatch.setattr("pathlib.Path.read_text", no_files)
        monkeypatch.chdir(tmp_path)
        assert resolve_sweep_workers(4, cpu_count=2) == expected == (
            2,
            "warning: parallel sweep requested 4 workers on a 2-cpu box "
            "(auto stays serial below 3 cpus); granting 2 — "
            "use --sweep-workers auto to stay serial here",
        )


class TestCliWiring:
    def args(self, **overrides):
        base = dict(chain_engine=None, parallel=False, sweep_workers=4)
        base.update(overrides)
        return argparse.Namespace(**base)

    def test_sweep_figures_receive_parallel_kwargs(self):
        # Explicit worker counts are resolved (clamped to the core count,
        # with a stderr warning on low-core boxes) rather than passed
        # through verbatim — the 0.25x-sweep-on-1-core bugfix.
        kwargs = runner_kwargs("fig10", self.args(parallel=True, sweep_workers=8))
        expected, _ = resolve_sweep_workers(8)
        assert kwargs == {"parallel": True, "sweep_workers": expected}

    def test_sweep_workers_auto_resolves_to_an_int(self):
        kwargs = runner_kwargs("fig10", self.args(parallel=True, sweep_workers="auto"))
        assert kwargs["parallel"] is True
        assert isinstance(kwargs["sweep_workers"], int)
        assert kwargs["sweep_workers"] >= 1

    def test_fig02_receives_chain_engine(self):
        kwargs = runner_kwargs("fig02", self.args(chain_engine="fastpath"))
        assert kwargs == {"chain_engine": "fastpath"}
        assert runner_kwargs("fig02", self.args()) == {}

    def test_non_sweep_figures_keep_zero_arg_calls(self):
        assert runner_kwargs("fig08", self.args(parallel=True)) == {}
        assert runner_kwargs("theory_mixing", self.args(parallel=True)) == {}
