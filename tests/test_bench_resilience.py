"""Tier-1 smoke test for the resilience benchmark.

Loads the benchmark harness (``benchmarks/bench_resilience.py``) and
re-asserts the headline storm acceptance on a shorter window: under a 7-of-16
straggler storm the hedged + supervised run must settle to at most ``0.6x``
the baseline's mean round time, with the liveness detector having declared
the stragglers dead (quorum-safety guarded) and the hedging layer having
actually fired.  The full report — including the unscripted SIGKILL recovery
cell — lives in ``make bench-resilience`` / ``BENCH_resilience.json``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.resilience

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_resilience.py"

#: Enough rounds for every straggler to walk suspect -> dead and for the
#: post-settle window to measure shrunk-membership rounds only.
SMOKE_ITERATIONS = 20
SMOKE_WARMUP = 14


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_resilience", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load_bench()


@pytest.fixture(scope="module")
def storm(bench):
    return bench.measure_storm(iterations=SMOKE_ITERATIONS, warmup=SMOKE_WARMUP)


def test_storm_round_time_ratio_meets_acceptance(bench, storm):
    assert storm["round_time_ratio"] <= bench.ROUND_TIME_RATIO_MAX


def test_stragglers_are_declared_dead(bench, storm):
    stragglers = {f"worker-{i}" for i in bench.STRAGGLERS}
    dead = set(storm["hedged"]["dead"])
    assert dead, "liveness detector never shrank the membership"
    # Only actual stragglers may be excluded, and the quorum-safety guard
    # must keep at least minimum_inputs alive (median, f=2 -> 5 peers).
    assert dead <= stragglers
    assert bench.NUM_WORKERS - len(dead) >= 5


def test_hedging_fired_and_baseline_stayed_clean(storm):
    assert storm["hedged"]["hedges_issued"] > 0
    assert storm["baseline"]["hedges_issued"] == 0
    assert storm["baseline"]["dead"] == []


def test_both_cells_converged(storm):
    assert storm["baseline"]["final_accuracy"] > 0.8
    assert storm["hedged"]["final_accuracy"] > 0.8


def test_committed_recovery_cell_carries_revive_before_and_after(bench):
    """Shape of the committed numbers only — no clock: the frozen ``before``
    (an interpreter per host) and the ``after`` (a fork from the zygote) are
    positive seconds, and the function that freezes ``before`` reads it back."""
    import json

    recovery = json.loads(bench.OUTPUT_PATH.read_text(encoding="utf-8"))["recovery"]
    assert recovery["completed"] and recovery["restarts"] >= 1
    revive = recovery["revive_s"]
    assert set(revive) == {"before", "after"}
    assert all(isinstance(value, float) and value > 0 for value in revive.values())
    assert revive["after"] < revive["before"]
    assert bench.frozen_revive_before() == revive["before"]
