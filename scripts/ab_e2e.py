#!/usr/bin/env python3
"""Interleaved parent/change runs of end-to-end benchmark workloads.

    python3 scripts/ab_e2e.py --parent REV --workload NAME[,NAME...]|all [--seed 1] [--pairs 10]
    make bench-e2e-ab PARENT=REV WORKLOAD=NAME[,NAME...]|all [SEED=1] [PAIRS=10]

Unpacks ``REV`` into a temporary directory (``git archive``: nothing is left
behind in ``.git``), then, one workload after the other, runs
``benchmarks/e2e/run.py --workload NAME --trace 0`` in that tree and in the
working tree alternately — each tree with its own copy of the benchmark, which
a gain-claiming change may not edit — swapping which side goes first every
pair, because the reference box drifts by 10-25 % over minutes.  Prints one
block per workload: per end-to-end metric of ``BENCHMARK.json``, each side's
median and quartiles and in how many pairs the change read better (a tie
counts for neither); writes every raw run as JSON, one file per workload;
deletes the tree.

A gain may be claimed when the change wins at least nine tenths of the pairs
and the medians differ by more than the distance between the parent's own
quartiles (the ``parent IQR`` column).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def unpack(revision: str, target: Path) -> None:
    """The committed files of ``revision``, under ``target``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        check=True,
        capture_output=True,
    )
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced pass in ``tree``; the benchmark's JSON result line."""
    done = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"no result line from {tree} (exit {done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["metrics"]:
        raise SystemExit(f"no metrics from {tree} (exit {done.returncode}):\n{done.stderr}")
    if not result["correct"]:
        print(f"  correctness gate FAILED in {tree}:\n{done.stderr}", file=sys.stderr)
    return result


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: Dict[str, List[Dict[str, Any]]], declared: List[Dict[str, Any]]) -> None:
    pairs = len(runs["parent"])
    print(
        f"{'metric':22s} {'parent q1 / median / q3':>34s} {'change q1 / median / q3':>34s} "
        f"{'ratio':>6s} {'parent IQR':>11s} {'wins':>6s}"
    )
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        wins = sum(
            (change > parent) if higher else (change < parent)
            for parent, change in zip(values["parent"], values["change"])
        )
        quarts = {side: quartiles(values[side]) for side in SIDES}
        cells = ["{:10.5g} {:10.5g} {:10.5g}".format(*quarts[side]) for side in SIDES]
        base = quarts["parent"][1]
        ratio = f"{quarts['change'][1] / base:6.3f}" if base else "   n/a"
        spread = quarts["parent"][2] - quarts["parent"][0]
        print(f"{name:22s} {cells[0]:>34s} {cells[1]:>34s} {ratio} {spread:11.4g} {wins:3d}/{pairs}")
    for side in SIDES:
        attempted = sum(run["attempted"] for run in runs[side])
        failed = sum(run["failed"] for run in runs[side])
        gates = sum(not run["correct"] for run in runs[side])
        print(f"{side}: {failed} of {attempted} rounds failed, {gates} of {pairs} runs off the gate")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [workload["name"] for workload in spec["workloads"]]

    def workloads(text: str) -> List[str]:
        chosen = declared if text == "all" else text.split(",")
        unknown = [name for name in chosen if name not in declared]
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown workload {unknown}; declared: {declared}")
        return chosen

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare the working tree with")
    parser.add_argument(
        "--workload", required=True, type=workloads, help="a declared name, several comma-separated, or 'all'"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"], help="timed seconds per run"
    )
    parser.add_argument(
        "--out-dir", type=Path, default=ROOT / "benchmarks/e2e/out", help="where the raw runs go"
    )
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    correct = True
    with tempfile.TemporaryDirectory(prefix="ab-e2e-parent-") as parent_tree:
        unpack(args.parent, Path(parent_tree))
        trees = {"parent": Path(parent_tree), "change": ROOT}
        for workload in args.workload:
            print(f"== {workload}  (parent {args.parent}, seed {args.seed}, {args.seconds:g} s runs)")
            runs: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run_once(trees[side], workload, args.seed, args.seconds)
                    runs[side].append(result)
                    speed = result["metrics"]["rounds_per_s"]["value"]
                    print(f"pair {pair + 1:2d} {side:6s} rounds_per_s {speed:8.3f}", flush=True)
            out = args.out_dir / f"ab-{workload}-seed{args.seed}.json"
            record = {
                "parent": args.parent,
                "workload": workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "runs": runs,
            }
            out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            summarize(runs, spec["end_to_end"])
            print(f"wrote {out}\n", flush=True)
            correct = correct and all(run["correct"] for side in SIDES for run in runs[side])
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
