"""Sharded-aggregation benchmark: resident bytes and shard-parallel throughput.

With ``shards = n_ps`` each server replica owns one contiguous slice of the
flat parameter vector, so per round it stages and aggregates a
``(q, d/n_ps)`` block instead of the full ``(q, d)`` matrix.  Two economics
follow, and this benchmark measures both on the real subsystem
(:class:`~repro.sharding.ShardMap`, :class:`~repro.sharding.ShardedRoundBuffer`,
the per-shard GAR loops of :mod:`repro.sharding.aggregation`):

* **memory** — peak resident gradient bytes per server drop to roughly
  ``1/n_ps`` of the unsharded round buffer (the sharded buffer's backing
  block is ``(q, max_shard)``);
* **throughput** — the shard lanes are independent, so with one owner per
  shard the round's aggregation critical path is the *slowest lane*, not the
  whole matrix: aggregation throughput scales near-linearly with the number
  of owners at large ``d`` for coordinate-wise GARs, and the two-phase
  distance protocol keeps the O(q^2 d) distance work sharded too.

Lanes are timed separately and the maximum is taken as the critical path —
the owners are distinct servers, so no threading is needed (or wanted: the
point is the per-owner work, not this host's core count).

Results land in ``BENCH_shard.json`` at the repository root with explicit
acceptance checks: resident ratio <= 0.6 at n_ps=2 and coordinate-wise
speedup >= 1.5x at n_ps=4, d=1e5.  Run via ``make bench-shard``; the tier-1
smoke test (``tests/test_bench_shard.py``) asserts the resident-bytes
contract at a small dimension.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.aggregators.base import GAR_REGISTRY, DistanceGAR
from repro.sharding import (
    ShardMap,
    ShardedRoundBuffer,
    combine_partial_distances,
    partial_squared_distances,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_shard.json"

#: Gradient quorum (rows) per round and the large-d grid point of the issue.
QUORUM = 15
DIMENSION = 100_000
SERVER_COUNTS = (1, 2, 4, 8)
#: Headline rules: one coordinate-wise, one two-phase.
GARS = ("median", "multi-krum")
BYZANTINE = 2
REPEATS = 5


def make_gar(name: str, rows: int):
    return GAR_REGISTRY[name](n=rows, f=BYZANTINE)


def stage_buffer(rows: np.ndarray, shard_map: ShardMap) -> ShardedRoundBuffer:
    buffer = ShardedRoundBuffer(rows.shape[0], shard_map)
    buffer.reset()
    for index, row in enumerate(rows):
        buffer.write_row(index, row)
    return buffer


def best_of(fn, repeats: int = REPEATS) -> float:
    """Minimum wall time over ``repeats`` runs (noise-robust on shared hosts)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# ---------------------------------------------------------------------- #
# Memory: resident gradient bytes per server
# ---------------------------------------------------------------------- #
def measure_memory(quorum: int, dimension: int, num_servers: int) -> Dict[str, float]:
    full_nbytes = quorum * dimension * 8  # the unsharded (q, d) float64 buffer
    shard_map = ShardMap(dimension, num_servers)
    buffer = ShardedRoundBuffer(quorum, shard_map)
    return {
        "num_servers": num_servers,
        "full_nbytes": full_nbytes,
        "resident_nbytes": buffer.resident_nbytes,
        "resident_ratio": buffer.resident_nbytes / full_nbytes,
    }


# ---------------------------------------------------------------------- #
# Throughput: per-owner aggregation critical path
# ---------------------------------------------------------------------- #
def lane_times(gar_name: str, matrix: np.ndarray, shard_map: ShardMap) -> List[float]:
    """Per-owner aggregation time, one lane per shard, on the real pipeline."""
    gar = make_gar(gar_name, matrix.shape[0])
    buffer = stage_buffer(matrix, shard_map)
    times = []
    if isinstance(gar, DistanceGAR):
        partials = [partial_squared_distances(buffer.materialize(s)) for s, _ in shard_map]
        selected = gar.select(combine_partial_distances(partials))
        for shard, _ in shard_map:
            times.append(
                best_of(lambda s=shard: gar.combine(buffer.materialize(s)[selected]))
            )
        # The distance phase is itself sharded: charge the slowest partial
        # into every lane (owners compute partials concurrently).
        partial_time = max(
            best_of(lambda s=shard: partial_squared_distances(buffer.materialize(s)))
            for shard, _ in shard_map
        )
        times = [t + partial_time for t in times]
    else:
        for shard, _ in shard_map:
            times.append(
                best_of(lambda s=shard: gar.aggregate_matrix(buffer.materialize(s)))
            )
    return times


def measure_throughput(gar_name: str, quorum: int, dimension: int, num_servers: int) -> Dict[str, float]:
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((quorum, dimension))
    gar = make_gar(gar_name, quorum)
    full_time = best_of(lambda: gar.aggregate_matrix(matrix))
    if num_servers == 1:
        critical_path = full_time
    else:
        critical_path = max(lane_times(gar_name, matrix, ShardMap(dimension, num_servers)))
    return {
        "gar": gar_name,
        "num_servers": num_servers,
        "dimension": dimension,
        "full_time_s": full_time,
        "critical_path_s": critical_path,
        "speedup": full_time / critical_path,
        "rounds_per_s": 1.0 / critical_path,
    }


# ---------------------------------------------------------------------- #
def build_report(memory: List[Dict[str, float]], throughput: List[Dict[str, float]]) -> Dict:
    """The ``BENCH_shard.json`` document: the shared BENCH header, then the rows."""
    ratio_at_2 = next(m["resident_ratio"] for m in memory if m["num_servers"] == 2)
    speedup_at_4 = next(
        t["speedup"]
        for t in throughput
        if t["gar"] == "median" and t["num_servers"] == 4
    )
    acceptance = {
        "resident_ratio_at_2_servers": ratio_at_2,
        "resident_ratio_bar": 0.6,
        "resident_ratio_ok": ratio_at_2 <= 0.6,
        "coordinate_wise_speedup_at_4_servers": speedup_at_4,
        "speedup_bar": 1.5,
        "speedup_ok": speedup_at_4 >= 1.5,
    }
    return {
        "benchmark": "shard",
        "description": (
            "sharded parameter-vector aggregation: per-server resident gradient bytes "
            "and shard-parallel aggregation critical path vs server count"
        ),
        "configuration": {
            "quorum": QUORUM,
            "dimension": DIMENSION,
            "f": BYZANTINE,
            "gars": list(GARS),
            "server_counts": list(SERVER_COUNTS),
            "repeats": REPEATS,
            "seed": 7,
        },
        "metrics": {
            "resident_ratio": "staging-buffer bytes per server / the unsharded (q, d) float64 buffer",
            "critical_path_s": "slowest owner's aggregation wall time, best of the repeats (n_ps=1: the whole matrix)",
            "speedup": "whole-matrix aggregation time / critical path",
            "rounds_per_s": "1 / critical path",
        },
        "acceptance": acceptance,
        "memory": memory,
        "throughput": throughput,
    }


def main() -> int:
    memory = [measure_memory(QUORUM, DIMENSION, k) for k in SERVER_COUNTS if k > 1]
    throughput = [
        measure_throughput(gar, QUORUM, DIMENSION, k)
        for gar in GARS
        for k in SERVER_COUNTS
    ]
    report = build_report(memory, throughput)
    acceptance = report["acceptance"]
    ratio_at_2 = acceptance["resident_ratio_at_2_servers"]
    speedup_at_4 = acceptance["coordinate_wise_speedup_at_4_servers"]
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"sharded aggregation @ q={QUORUM}, d={DIMENSION}")
    for entry in memory:
        print(
            f"  memory  n_ps={entry['num_servers']}: resident "
            f"{entry['resident_nbytes']:>10} B  ({entry['resident_ratio']:.3f}x of full)"
        )
    for entry in throughput:
        print(
            f"  {entry['gar']:<11} n_ps={entry['num_servers']}: "
            f"critical path {entry['critical_path_s'] * 1e3:8.2f} ms  "
            f"speedup {entry['speedup']:.2f}x"
        )
    print(f"wrote {OUTPUT_PATH}")
    ok = acceptance["resident_ratio_ok"] and acceptance["speedup_ok"]
    print(
        "acceptance: "
        f"resident ratio {ratio_at_2:.3f} <= 0.6 "
        f"[{'ok' if acceptance['resident_ratio_ok'] else 'FAIL'}], "
        f"speedup {speedup_at_4:.2f}x >= 1.5x "
        f"[{'ok' if acceptance['speedup_ok'] else 'FAIL'}]"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
