"""Online-detection benchmark: time-to-evict, accuracy, rounds/sec gain.

Three questions, one grid (8 workers, f=2, two of them attacking, logistic
regression on the MNIST-like synthetic set):

* **Does detection rescue a non-robust GAR?**  Attack x GAR cells with the
  detector off and on.  A plain average collapses to ~0 accuracy under
  reversed gradients; with the distance detector in front of it the
  attackers are evicted within a few rounds and the average matches the
  robust baselines.  Stealthy within-variance attacks (little-is-enough,
  fall-of-empires) never cross the eviction bar by design — surviving them
  is the robust GAR's job, which the krum / median columns show.
* **How fast, per detector?**  Time-to-evict and accuracy of every bundled
  detector on the flagrant (reversed + average) cell.
* **What does eviction buy in round time?**  In an asynchronous deployment
  each eviction shrinks the reply quorum by one, so the cost model charges
  fewer messages and shorter waits: post-eviction rounds are measurably
  faster than the detector-less baseline's, detection surcharge included.

Results land in ``BENCH_detection.json`` at the repository root; ``make
bench-detection`` runs this file, and the tier-1 smoke test
(``tests/test_bench_detection.py``) asserts the headline acceptance — all
attackers evicted within 15 rounds and reversed+average+detection at least
as accurate as krum without detection — on the same configuration.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.cluster import ClusterConfig
from repro.core.session import Session

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_detection.json"

ATTACKS = ("reversed", "little-is-enough", "fall-of-empires")
GARS = ("average", "krum", "median")
DETECTORS = ("distance", "mad", "variance")

#: Evict-by acceptance bound for flagrant attacks (rounds).
EVICT_DEADLINE = 15
ITERATIONS = 30


def make_config(
    attack: str,
    gar: str,
    detector: str = "",
    asynchronous: bool = False,
    iterations: int = ITERATIONS,
) -> ClusterConfig:
    return ClusterConfig(
        deployment="ssmw",
        asynchronous=asynchronous,
        num_workers=8,
        num_byzantine_workers=2,
        num_attacking_workers=2,
        worker_attack=attack,
        gradient_gar=gar,
        detector=detector,
        model="logistic",
        dataset="mnist",
        dataset_size=400,
        batch_size=8,
        learning_rate=0.2,
        num_iterations=iterations,
        accuracy_every=iterations,
        seed=7,
    )


def run_cell(
    attack: str,
    gar: str,
    detector: str = "",
    asynchronous: bool = False,
    iterations: int = ITERATIONS,
) -> Dict:
    """One training session; returns accuracy, evictions and timing."""
    config = make_config(attack, gar, detector, asynchronous, iterations)
    start = time.perf_counter()
    with Session(config=config) as session:
        rounds = list(session)
        result = session.result()
        evictions = [
            {"round": e["round"], "target": e["target"]}
            for r in rounds
            for e in (r.detection or {}).get("events", ())
            if e["action"] == "evict"
        ]
        records = list(session.deployment.metrics.records)
    wall = time.perf_counter() - start
    # Time-to-evict: the round by which the *last* attacker was evicted
    # (None when nothing was, e.g. detector off or a stealthy attack).
    time_to_evict = max((e["round"] for e in evictions), default=None)
    return {
        "attack": attack,
        "gar": gar,
        "detector": detector or "off",
        "asynchronous": asynchronous,
        "final_accuracy": round(float(result.final_accuracy), 4),
        "evictions": evictions,
        "time_to_evict": time_to_evict,
        "simulated_time": round(sum(r.total_time for r in records), 4),
        "wall_rounds_per_s": round(iterations / wall, 2),
        "_records": records,  # stripped before serialization
    }


def strip(cell: Dict) -> Dict:
    return {key: value for key, value in cell.items() if not key.startswith("_")}


# ---------------------------------------------------------------------- #
# Attack x GAR grid, detection off/on
# ---------------------------------------------------------------------- #
def measure_grid(iterations: int = ITERATIONS) -> List[Dict]:
    rows: List[Dict] = []
    for attack in ATTACKS:
        for gar in GARS:
            for detector in ("", "distance"):
                cell = strip(run_cell(attack, gar, detector, iterations=iterations))
                rows.append(cell)
                evicted = (
                    f"evicted by r{cell['time_to_evict']}"
                    if cell["time_to_evict"] is not None
                    else "no evictions"
                )
                print(
                    f"grid attack={attack:16s} gar={gar:8s} "
                    f"detector={cell['detector']:8s} "
                    f"accuracy={cell['final_accuracy']:.3f} ({evicted})"
                )
    return rows


# ---------------------------------------------------------------------- #
# Detector shoot-out on the flagrant cell
# ---------------------------------------------------------------------- #
def measure_detectors(iterations: int = ITERATIONS) -> List[Dict]:
    rows = []
    for detector in DETECTORS:
        cell = strip(run_cell("reversed", "average", detector, iterations=iterations))
        rows.append(cell)
        print(
            f"detector {detector:9s} accuracy={cell['final_accuracy']:.3f} "
            f"time_to_evict={cell['time_to_evict']}"
        )
    return rows


# ---------------------------------------------------------------------- #
# Quorum-shrink round-time gain (asynchronous)
# ---------------------------------------------------------------------- #
def measure_round_time_gain(iterations: int = ITERATIONS) -> Dict:
    """Post-eviction simulated round time vs the detector-less baseline.

    Both runs are asynchronous (quorum n - f).  With detection on, each
    eviction shrinks the quorum by one; rounds after the last eviction pull
    fewer workers, wait for fewer replies and pay fewer serialization slots,
    which outweighs the detector's own scoring surcharge.
    """
    baseline = run_cell("reversed", "average", "", asynchronous=True, iterations=iterations)
    detected = run_cell("reversed", "average", "distance", asynchronous=True, iterations=iterations)
    settle = (detected["time_to_evict"] or 0) + 1
    post_eviction = detected["_records"][settle:]
    baseline_rounds = baseline["_records"][settle:]
    mean_detected = sum(r.total_time for r in post_eviction) / len(post_eviction)
    mean_baseline = sum(r.total_time for r in baseline_rounds) / len(baseline_rounds)
    report = {
        "baseline": strip(baseline),
        "detected": strip(detected),
        "compared_rounds": f"{settle}..{iterations - 1}",
        "mean_round_time_baseline": round(mean_baseline, 6),
        "mean_round_time_post_eviction": round(mean_detected, 6),
        "round_time_speedup": round(mean_baseline / mean_detected, 4),
    }
    print(
        f"async round time: baseline={mean_baseline:.4f}s "
        f"post-eviction={mean_detected:.4f}s "
        f"speedup={report['round_time_speedup']:.3f}x"
    )
    return report


# ---------------------------------------------------------------------- #
# Acceptance
# ---------------------------------------------------------------------- #
def find_cell(rows: List[Dict], attack: str, gar: str, detector: str) -> Dict:
    for row in rows:
        if (row["attack"], row["gar"], row["detector"]) == (attack, gar, detector):
            return row
    raise KeyError(f"missing cell {attack}/{gar}/{detector}")


def check_acceptance(grid: List[Dict], gain: Optional[Dict] = None) -> bool:
    """The headline claims the tier-1 smoke test re-asserts."""
    rescued = find_cell(grid, "reversed", "average", "distance")
    krum_baseline = find_cell(grid, "reversed", "krum", "off")
    evicted_all = (
        len(rescued["evictions"]) == 2
        and rescued["time_to_evict"] is not None
        and rescued["time_to_evict"] <= EVICT_DEADLINE
    )
    accuracy_ok = rescued["final_accuracy"] >= krum_baseline["final_accuracy"]
    speedup_ok = gain is None or gain["round_time_speedup"] > 1.0
    print(
        f"acceptance: both attackers evicted <= r{EVICT_DEADLINE}: "
        f"{'PASS' if evicted_all else 'FAIL'}; "
        f"average+detection {rescued['final_accuracy']:.3f} >= "
        f"krum-no-detection {krum_baseline['final_accuracy']:.3f}: "
        f"{'PASS' if accuracy_ok else 'FAIL'}"
        + (
            f"; post-eviction speedup {gain['round_time_speedup']:.3f}x > 1: "
            f"{'PASS' if speedup_ok else 'FAIL'}"
            if gain is not None
            else ""
        )
    )
    return evicted_all and accuracy_ok and speedup_ok


def run_benchmark(iterations: int = ITERATIONS) -> Dict:
    grid = measure_grid(iterations=iterations)
    detectors = measure_detectors(iterations=iterations)
    gain = measure_round_time_gain(iterations=iterations)
    return {
        "benchmark": "detection",
        "description": (
            "online Byzantine detection: attack x GAR grid with detection "
            "off/on, per-detector time-to-evict, async quorum-shrink gain"
        ),
        "configuration": {
            "deployment": "ssmw",
            "num_workers": 8,
            "f": 2,
            "attacking": 2,
            "iterations": iterations,
            "dataset": "mnist (synthetic, 400 samples)",
            "seed": 7,
        },
        "metrics": {
            "time_to_evict": "round by which the last eviction landed (None = none)",
            "simulated_time": "cost-model total run time (compute + comm + aggregation)",
            "round_time_speedup": "mean post-eviction round time vs detector-less async baseline",
        },
        "acceptance": {
            "evict_deadline_rounds": EVICT_DEADLINE,
            "accuracy_floor": "reversed+average+distance >= reversed+krum+off",
            "round_time_speedup_min": 1.0,
        },
        "grid": grid,
        "detectors": detectors,
        "round_time_gain": gain,
    }


def main() -> int:
    report = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {OUTPUT_PATH}")
    return 0 if check_acceptance(report["grid"], report["round_time_gain"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
