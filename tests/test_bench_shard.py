"""Tier-1 smoke test for the sharded-aggregation resident-bytes contract.

Loads the benchmark harness (``benchmarks/bench_shard.py``) and checks, at a
dimension small enough for CI, that the per-server staging buffer holds one
``(q, ceil(d / n_ps))`` block — so resident gradient bytes drop to ~``1/n_ps``
of the full round buffer, and in particular to at most 0.6x at two servers.
Timing is *not* asserted here (CI machines are noisy); the full grid with the
throughput bars lives in ``make bench-shard`` / ``BENCH_shard.json``.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

pytestmark = pytest.mark.sharding

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_shard.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_shard", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_resident_bytes_follow_the_one_over_nps_contract():
    bench = load_bench()
    quorum, dimension = 9, 4_001
    for num_servers in (2, 3, 4, 8):
        numbers = bench.measure_memory(quorum, dimension, num_servers)
        expected = quorum * math.ceil(dimension / num_servers) * 8
        assert numbers["resident_nbytes"] == expected
        assert numbers["resident_ratio"] <= math.ceil(dimension / num_servers) / dimension
    at_two = bench.measure_memory(quorum, dimension, 2)
    assert at_two["resident_ratio"] <= 0.6


def test_lane_critical_path_computes_the_same_aggregate():
    """The lanes the benchmark times must do the round's actual math."""
    bench = load_bench()
    rng = np.random.default_rng(3)
    quorum, dimension, num_servers = 9, 600, 3
    matrix = rng.standard_normal((quorum, dimension))
    shard_map = bench.ShardMap(dimension, num_servers)
    for gar_name in bench.GARS:
        gar = bench.make_gar(gar_name, quorum)
        whole = gar.aggregate_matrix(matrix)
        from repro.sharding import sharded_aggregate_matrix

        assert np.array_equal(
            whole, sharded_aggregate_matrix(gar, matrix, shard_map, f=bench.BYZANTINE)
        )
        times = bench.lane_times(gar_name, matrix, shard_map)
        assert len(times) == num_servers
        assert all(t >= 0.0 for t in times)


def test_benchmark_grid_covers_the_acceptance_points():
    bench = load_bench()
    assert 2 in bench.SERVER_COUNTS and 4 in bench.SERVER_COUNTS
    assert bench.DIMENSION == 100_000
    assert "median" in bench.GARS  # the coordinate-wise acceptance GAR


def test_report_carries_the_shared_bench_header():
    """Same leading keys as the other ``BENCH_*.json`` files, written and committed."""
    bench = load_bench()
    memory = [bench.measure_memory(9, 600, k) for k in (2, 4)]
    throughput = [bench.measure_throughput("median", 9, 600, k) for k in (1, 4)]
    report = bench.build_report(memory, throughput)
    header = ["benchmark", "description", "configuration", "metrics", "acceptance"]
    assert list(report)[: len(header)] == header
    assert report["benchmark"] == "shard"
    assert set(report["metrics"]) >= {"resident_ratio", "critical_path_s", "speedup"}
    committed = json.loads(bench.OUTPUT_PATH.read_text(encoding="utf-8"))
    assert list(committed) == list(report)
    assert committed["configuration"] == report["configuration"]
