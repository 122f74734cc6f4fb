"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["explode"])


class TestStartUp:
    def _modules_loaded_by(self, program: str) -> str:
        src = str(Path(repro.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        done = subprocess.run(
            [sys.executable, "-c", program],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, inherited]))},
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_cli_and_node_hosts_import_neither_scipy_nor_networkx(self):
        """Together they cost an interpreter ~0.8 s and ~80 MB of start-up, for
        one helper function each."""
        probe = (
            "import repro.network.rpc, repro.core.controller, repro.cli, sys; "
            "print([name for name in ('scipy', 'networkx') if name in sys.modules])"
        )
        assert self._modules_loaded_by(probe) == "[]"

    def test_zygote_imports_numpy_and_the_node_classes_and_nothing_heavy(self):
        """What the zygote holds when it forks is what every host starts
        with: run it to its end (stdin at EOF, no host asked for) and look."""
        probe = (
            "import sys, repro.network.rpc as rpc; rpc.zygote_main(); "
            "print([name for name in ('scipy', 'networkx', 'numpy.random', 'repro.core.worker') "
            "if name in sys.modules])"
        )
        assert self._modules_loaded_by(probe) == "['numpy.random', 'repro.core.worker']"


class TestListCommand:
    def test_lists_building_blocks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for expected in ["multi-krum", "bulyan", "little-is-enough", "resnet50", "msmw", "crash_quorum_edge"]:
            assert expected in out


class TestScenariosCommand:
    def test_lists_bundled_timelines(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ["calm_baseline", "straggler_storm", "partition_heal", "churn_at_f_bound"]:
            assert name in out
        assert "crash  worker-0" in out

    def test_run_with_unknown_scenario_fails(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "--scenario", "not-a-scenario"])

    def test_trace_output_without_scenario_warns(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        args = [
            "run", "--workers", "4", "--dataset-size", "100", "--iterations", "2",
            "--trace-output", str(trace_path),
        ]
        assert main(args) == 0
        assert "requires --scenario" in capsys.readouterr().err
        assert not trace_path.exists()


class TestThroughputCommand:
    def test_prints_all_deployments(self, capsys):
        assert main(["throughput", "--model", "cifarnet", "--device", "cpu"]) == 0
        out = capsys.readouterr().out
        for deployment in ["vanilla", "ssmw", "msmw", "decentralized"]:
            assert deployment in out
        assert "slowdown" in out

    def test_gpu_profile(self, capsys):
        assert main(["throughput", "--model", "resnet50", "--device", "gpu"]) == 0
        assert "10 workers / 3 servers" in capsys.readouterr().out


class TestRunCommand:
    def test_small_run_prints_summary(self, capsys):
        code = main(
            [
                "run",
                "--deployment", "ssmw",
                "--workers", "5",
                "--byzantine-workers", "1",
                "--attacking-workers", "1",
                "--attack", "reversed",
                "--gar", "multi-krum",
                "--dataset-size", "150",
                "--batch-size", "8",
                "--iterations", "4",
                "--accuracy-every", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ssmw: final accuracy" in out
        assert "per-iteration time" in out

    def test_run_with_negotiated_wire_format(self, capsys):
        code = main(
            [
                "run",
                "--workers", "4",
                "--dataset-size", "100",
                "--batch-size", "8",
                "--iterations", "3",
                "--wire-format", "int8+delta",
            ]
        )
        assert code == 0
        assert "final accuracy" in capsys.readouterr().out

    def test_run_rejects_unknown_wire_format(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "--workers", "4", "--iterations", "1", "--wire-format", "float128"])

    def test_run_writes_json_output(self, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(
            [
                "run",
                "--deployment", "vanilla",
                "--workers", "4",
                "--dataset-size", "120",
                "--batch-size", "8",
                "--iterations", "3",
                "--accuracy-every", "3",
                "--output", str(output),
            ]
        )
        assert code == 0
        data = json.loads(output.read_text())
        assert data["config"]["deployment"] == "vanilla"
        assert data["iterations"] == 3

    def test_invalid_configuration_surfaces_library_error(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(
                [
                    "run",
                    "--deployment", "ssmw",
                    "--workers", "4",
                    "--byzantine-workers", "4",
                    "--iterations", "2",
                ]
            )

    def test_stream_prints_per_round_lines(self, capsys):
        code = main(
            [
                "run",
                "--deployment", "ssmw",
                "--workers", "4",
                "--dataset-size", "100",
                "--batch-size", "8",
                "--iterations", "3",
                "--accuracy-every", "2",
                "--stream",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for iteration in range(3):
            assert f"round    {iteration}  quorum  4" in out
        assert "update-norm" in out

    def test_until_stops_the_session_at_the_exact_round(self, capsys):
        code = main(
            [
                "run",
                "--deployment", "ssmw",
                "--workers", "4",
                "--dataset-size", "100",
                "--batch-size", "8",
                "--iterations", "6",
                "--accuracy-every", "2",
                "--until", "2",
            ]
        )
        assert code == 0
        assert "over 2 iterations" in capsys.readouterr().out


class TestFuzzCommand:
    def test_small_campaign_passes_and_prints_per_case_lines(self, capsys):
        code = main(["fuzz", "--seed", "2026", "--count", "3", "--no-determinism"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count(" ok") >= 3
        assert "fuzz: 3 scenarios (seed 2026), 0 invariant failure(s)" in out

    def test_quiet_suppresses_per_case_lines(self, capsys):
        code = main(["fuzz", "--seed", "2026", "--count", "2", "--quiet", "--no-determinism"])
        out = capsys.readouterr().out
        assert code == 0
        assert "case " not in out
        assert "fuzz: 2 scenarios" in out

    def test_report_flag_writes_campaign_summary(self, tmp_path, capsys):
        report = tmp_path / "FUZZ_report.json"
        code = main(
            [
                "fuzz", "--seed", "2026", "--count", "3",
                "--no-determinism", "--report", str(report),
            ]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert data["scenarios_run"] == 3
        assert str(report) in capsys.readouterr().out

    def test_deployment_and_budget_filters(self, capsys):
        code = main(
            [
                "fuzz", "--seed", "1", "--count", "2", "--no-determinism",
                "--deployments", "ssmw", "--budgets", "below",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ssmw" in out
        assert "aggregathor" not in out and "beyond" not in out

    def test_failure_exits_nonzero_and_saves_shrunk_spec(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        from repro.aggregators.base import GAR_REGISTRY

        # Inject a GAR bug for the duration of the campaign: median degrades
        # to a plain mean, which Byzantine gradients can steer.
        monkeypatch.setattr(
            GAR_REGISTRY["median"],
            "aggregate_matrix",
            lambda self, matrix: np.asarray(matrix).mean(axis=0),
        )
        save_dir = tmp_path / "failing"
        code = main(
            [
                "fuzz", "--seed", "2026", "--start", "15", "--count", "10",
                "--no-determinism", "--cross-executor-every", "0",
                "--pause-resume-every", "0", "--save", str(save_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "invariant failure(s)" in out and " 0 invariant" not in out
        assert "replay: repro fuzz --seed 2026 --start" in out
        saved = list(save_dir.glob("*.json"))
        assert saved, "failing specs were not saved"
        assert "config" in json.loads(saved[0].read_text())
