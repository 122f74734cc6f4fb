"""Tier-1 smoke test of the end-to-end benchmark (``run.py --smoke``).

The runner is driven in a child interpreter: the traced pass replaces class
attributes of the program, and although it restores them, a test process is
the wrong place to find out that it did not.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.network.rpc import process_backend_available

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SERIAL_WORKLOADS = ("ssmw-cnn-serial", "ssmw-bulyan-wide")
IN_PROCESS_WORKLOADS = SERIAL_WORKLOADS + ("msmw-sharded-int8-threaded",)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke():
    done = _run("--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_is_within_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["better"] in ("higher", "lower")
    setup = next(metric for metric in spec["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in spec["end_to_end"])


def test_every_per_layer_metric_declares_what_it_moves(spec):
    with open(HERE / "layer_metrics.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert list(declared) == [metric["name"] for metric in spec["per_layer"]]
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    workloads = {workload["name"] for workload in spec["workloads"]}
    for name, entry in declared.items():
        assert entry["what"], name
        assert entry["moves"] or entry.get("moves_nothing_because"), name
        for metric, where in entry["moves"].items():
            assert metric in end_to_end, (name, metric)
            assert where and set(where) <= workloads, (name, where)


def test_smoke_emits_every_declared_metric(spec, smoke):
    assert set(smoke) == set(IN_PROCESS_WORKLOADS)
    for name, outcome in smoke.items():
        assert outcome["correct"], (name, outcome["problems"])
        assert outcome["failed"] == 0 and outcome["attempted"] == 6
        for key in ("end_to_end", "per_layer"):
            assert list(outcome[key]) == [metric["name"] for metric in spec[key]], (name, key)
            for metric in spec[key]:
                entry = outcome[key][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float)), (name, metric["name"])
        assert all(entry["value"] > 0 for entry in outcome["end_to_end"].values()), name


@pytest.mark.parametrize("workload", SERIAL_WORKLOADS)
def test_layer_self_times_close_on_serial_workloads(smoke, workload):
    """With no overlap, self times partition the round: the shares sum to 1."""
    layers = smoke[workload]["per_layer"]
    shares = [entry["value"] for name, entry in layers.items() if name.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)
    assert layers["trace.unattributed_share"]["value"] <= 0.10
    assert layers["executor.overlap"]["value"] <= 1.0


def test_traced_pass_sees_the_layer_each_workload_was_chosen_for(smoke):
    cnn = smoke["ssmw-cnn-serial"]["per_layer"]
    assert cnn["share.core.worker"]["value"] + cnn["share.nn"]["value"] >= 0.8
    bulyan = smoke["ssmw-bulyan-wide"]["per_layer"]
    assert bulyan["share.aggregators"]["value"] >= 0.4
    int8 = smoke["msmw-sharded-int8-threaded"]["per_layer"]
    shares = {name: entry["value"] for name, entry in int8.items() if name.startswith("share.")}
    assert max(shares, key=shares.get) == "share.network.serialization"
    assert int8["worker.cache_hit_ratio"]["value"] == pytest.approx(2 / 3)
    assert int8["transport.reply_use_ratio"]["value"] == pytest.approx(0.75)


def test_compare_flags_a_regression_beyond_the_bound(smoke, tmp_path):
    base = {"workloads": {name: dict(outcome, correct=True) for name, outcome in smoke.items()}}
    # A smoke result has no process workload; any complete entry stands in.
    base["workloads"]["msmw-process-f64"] = base["workloads"]["ssmw-bulyan-wide"]
    worse = json.loads(json.dumps(base))
    worse["workloads"]["ssmw-bulyan-wide"]["end_to_end"]["round_ms_p50"]["value"] *= 1.5
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base), encoding="utf-8")
    b.write_text(json.dumps(worse), encoding="utf-8")
    same = _run("--compare", str(a), str(a))
    assert same.returncode == 0, same.stdout
    regressed = _run("--compare", str(a), str(b))
    assert regressed.returncode == 1
    assert "ssmw-bulyan-wide  round_ms_p50" in regressed.stdout.split("worse than A")[-1]


def test_runner_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, there is nothing to measure."""
    (tmp_path / "benchmarks").mkdir()
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir()
    for source in HERE.glob("*.py"):
        (copy / source.name).write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ssmw-cnn-serial", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.mark.slow
@pytest.mark.backend("process")
def test_process_workload_three_round_smoke(spec):
    available, reason = process_backend_available()
    if not available:
        pytest.skip(f"process backend unavailable: {reason}")
    done = _run("--workload", "msmw-process-f64", "--rounds", "3", "--trace", "0")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    outcome = json.loads(done.stdout.splitlines()[-1])
    assert outcome["correct"] and outcome["attempted"] == 3 and outcome["failed"] == 0
    assert list(outcome["metrics"]) == [metric["name"] for metric in spec["end_to_end"]]
    assert outcome["metrics"]["setup_s"]["value"] > 0
