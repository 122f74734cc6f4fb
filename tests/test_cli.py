"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, config_flag, main
from repro.core.cluster import ClusterConfig
from repro.core.scenario import config_for_scenario
from repro.core.session import APPLICATION_REGISTRY, RoundStrategy, available_applications, register_application
from repro.network.resilience import ResilienceConfig


def run_parser() -> argparse.ArgumentParser:
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices["run"]


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["throughput", "--workers", "0"], "need at least one worker"),
            (["throughput", "--gar", "bogus"], "'bogus'"),
            (["run", "--wire-format", "int8+zlib"], "'zlib'"),
        ],
        ids=["no-workers", "unknown-gar", "unknown-wire-format-token"],
    )
    def test_a_configuration_error_is_one_line_and_status_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and message in err
        assert err.count("\n") == 1


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

    def test_run_with_unknown_scenario_fails(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", "not-a-scenario"])
        assert excinfo.value.code == 2
        assert "not-a-scenario" in capsys.readouterr().err

    def test_trace_output_without_scenario_warns(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        args = [
            "run", "--workers", "4", "--model", "logistic", "--dataset-size", "100",
            "--iterations", "2", "--trace-output", str(trace_path),
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

    def test_prints_one_row_per_registered_strategy(self, capsys):
        register_application("third-party-star")(type("Star", (RoundStrategy,), {}))
        try:
            assert main(["throughput", "--model", "cifarnet"]) == 0
        finally:
            APPLICATION_REGISTRY.pop("third-party-star")
        rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[2:]}
        assert set(rows) == {*available_applications(), "third-party-star"}
        assert rows["vanilla"][-1] == "1.00x"  # the slowdown baseline
        assert float(rows["third-party-star"][3]) > 0

    def test_gpu_profile(self, capsys):
        assert main(["throughput", "--model", "resnet50", "--device", "gpu"]) == 0
        out = capsys.readouterr().out
        assert "10 workers / 3 servers" in out
        # Ten workers at f_w = 3 leave a decentralized node 7 gradients, not Multi-Krum's 9.
        refused = [line.split(None, 1) for line in out.splitlines() if "refused" in line]
        assert refused == [["decentralized", "refused: GAR 'multi-krum' needs at least 9 gradients to tolerate "
                            "f=3, but the deployment only collects 7"]]


class TestRunCommand:
    def test_small_run_prints_summary(self, capsys):
        code = main(
            [
                "run",
                "--deployment", "ssmw",
                "--workers", "5",
                "--byzantine-workers", "1",
                "--attacking-workers", "1",
                "--worker-attack", "reversed",
                "--gradient-gar", "multi-krum",
                "--model", "logistic",
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
                "--model", "logistic",
                "--dataset-size", "100",
                "--batch-size", "8",
                "--iterations", "3",
                "--wire-format", "int8+delta",
            ]
        )
        assert code == 0
        assert "final accuracy" in capsys.readouterr().out

    def test_run_rejects_unknown_wire_format(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workers", "4", "--iterations", "1", "--wire-format", "float128"])
        assert excinfo.value.code == 2
        assert "'float128'" in capsys.readouterr().err

    def test_run_writes_json_output(self, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = main(
            [
                "run",
                "--deployment", "vanilla",
                "--workers", "4",
                "--model", "logistic",
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

    def test_invalid_configuration_surfaces_library_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run",
                    "--deployment", "ssmw",
                    "--workers", "4",
                    "--byzantine-workers", "4",
                    "--iterations", "2",
                ]
            )
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("repro: error: ")

    def test_stream_prints_per_round_lines(self, capsys):
        code = main(
            [
                "run",
                "--deployment", "ssmw",
                "--workers", "4",
                "--model", "logistic",
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
                "--model", "logistic",
                "--dataset-size", "100",
                "--batch-size", "8",
                "--iterations", "6",
                "--accuracy-every", "2",
                "--until", "2",
            ]
        )
        assert code == 0
        assert "over 2 iterations" in capsys.readouterr().out


class TestRunFlags:
    """``repro run``'s flags are generated from ``ClusterConfig``: one per
    scalar field and per resilience option, none with a default of its own."""

    def test_every_scalar_field_and_resilience_option_is_exactly_one_flag(self):
        hints = typing.get_type_hints(ClusterConfig)
        scalars = {
            field.name for field in dataclasses.fields(ClusterConfig)
            if hints[field.name] in (bool, int, float, str)
        }
        options = {field.name for field in dataclasses.fields(ResilienceConfig)}
        actions = [action for action in run_parser()._actions if action.option_strings]
        for name in scalars:
            (action,) = [action for action in actions if action.dest == name]
            assert action.option_strings == [config_flag(name)]
        resilience = [action for action in actions if action.dest == "resilience"]
        assert sorted(action.option_strings[0] for action in resilience) == sorted(
            config_flag(option) for option in options
        )
        hand_written = {"help", "trace_output", "output", "stream", "until"}
        assert {action.dest for action in actions} == scalars | {"resilience"} | hand_written

    def test_no_run_flag_carries_a_default_of_its_own(self):
        for action in run_parser()._actions:
            if action.dest in {field.name for field in dataclasses.fields(ClusterConfig)}:
                assert action.default is argparse.SUPPRESS, action.dest
        parsed = vars(build_parser().parse_args(["run"]))
        assert set(parsed) == {"command", "handler", "trace_output", "output", "stream", "until"}

    def test_resilience_flags_build_one_dict(self):
        parsed = build_parser().parse_args(["run", "--retry", "--supervise"])
        assert parsed.resilience == {"retry": True, "supervise": True}

    @pytest.mark.parametrize(
        "argv", [["--gar", "multi-krum"], ["--attack", "reversed"], ["--work", "4"]]
    )
    def test_retired_and_abbreviated_flags_fail_loudly(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unset_flags_keep_the_config_defaults(self, tmp_path, capsys):
        output = tmp_path / "r.json"
        assert main(["run", "--until", "1", "--output", str(output)]) == 0
        assert json.loads(output.read_text())["config"] == ClusterConfig().to_dict()

    def test_scenario_file_fills_only_what_it_sets(self, tmp_path, capsys):
        scenario = tmp_path / "shape.json"
        scenario.write_text(json.dumps({
            "name": "shape",
            "config": {"deployment": "ssmw", "num_workers": 7, "num_byzantine_workers": 1},
            "events": [],
        }))
        output = tmp_path / "r.json"
        assert main(["run", "--scenario", str(scenario), "--until", "1", "--output", str(output)]) == 0
        recorded = json.loads(output.read_text())["config"]
        assert recorded == config_for_scenario(str(scenario)).to_dict()
        assert recorded["dataset_size"] == ClusterConfig().dataset_size


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
        from repro.core.fuzz import ScenarioGenerator

        # Start at the first tolerated case whose attackers face a median GAR.
        start = next(
            case.index
            for case in ScenarioGenerator(seed=2026).cases(100)
            if case.budget != "beyond"
            and case.spec.config.get("num_attacking_workers", 0)
            and case.spec.config.get("gradient_gar") == "median"
        )
        save_dir = tmp_path / "failing"
        code = main(
            [
                "fuzz", "--seed", "2026", "--start", str(start), "--count", "10",
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
