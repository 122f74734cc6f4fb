"""End-to-end round benchmark: four workloads, an untraced and a traced pass.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
        One workload, one pass kind; the last line of standard output is one
        JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
        ``--trace 0`` gives the end-to-end metrics, measured with no wrapper
        installed; ``--trace 1`` gives the per-layer metrics of a traced pass.

    python3 benchmarks/e2e/run.py --seed S [--seconds T] [--out FILE]
        Every workload, both pass kinds, each in a fresh child interpreter;
        prints every metric with its unit and sample count and writes FILE
        (default ``benchmarks/e2e/out/e2e-seed<S>.json``).

    python3 benchmarks/e2e/run.py --compare A.json B.json
        Rows of two such files side by side; exits 1 if B is worse than A by
        more than a metric's bound anywhere.

    python3 benchmarks/e2e/run.py --smoke
        The in-process workloads at 6 rounds, both pass kinds, as one JSON
        object — what ``test_e2e_smoke.py`` validates.

Exit status is non-zero when a round failed, the correctness gate did not
hold, or the program under ``src/`` is not there to be measured.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Fewest timed rounds of an untraced pass: 15 blocks, of which the three
#: quietest are kept; quality is read after exactly this many.
MIN_ROUNDS = 150
#: Fewest rounds of each pass of a traced run.
MIN_TRACED_ROUNDS = 40
#: Share of a traced run's seconds spent on its untraced reference pass.
REFERENCE_SHARE = 0.3
#: Set-ups per untraced run (the pass itself plus repeats); ``setup_s`` is
#: their median.  Nine OS processes take seconds to spawn, so fewer there.
SETUP_REPEATS = {True: 5, False: 3}  # keyed by Workload.in_process
#: The progress half of the correctness gate: training under attack must
#: remove at least this share of the pristine model's loss by the checkpoint.
MIN_LOSS_REDUCTION = 0.5
SMOKE_ROUNDS = 6


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _with_units(values: Dict[str, float], declared: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


# ---------------------------------------------------------------------- #
# One workload, one pass kind
# ---------------------------------------------------------------------- #
def measure_end_to_end(workload, seed: int, seconds: float, rounds: Optional[int]):
    """The untraced pass plus the repeated set-ups; returns ``(pass, metrics)``."""
    import harness

    result = harness.run_pass(
        workload,
        seed,
        seconds=seconds,
        min_rounds=rounds or MIN_ROUNDS,
        max_rounds=rounds,
    )
    if not result.step_s:
        return result, {}
    setups = [result.setup_s]
    if rounds is None:
        repeats = SETUP_REPEATS[workload.in_process]
        setups += [
            harness.run_pass(workload, seed, seconds=0.0, min_rounds=0, max_rounds=0).setup_s
            for _ in range(repeats - 1)
        ]
        if result.correct and not result.loss < (1.0 - MIN_LOSS_REDUCTION) * result.pristine_loss:
            result.gate_errors.append(
                f"loss {result.loss:.4f} after {MIN_ROUNDS} timed rounds is not below "
                f"{1.0 - MIN_LOSS_REDUCTION:.2f} x the pristine model's {result.pristine_loss:.4f}"
            )
    return result, harness.end_to_end_metrics(result, setups)


def measure_per_layer(workload, seed: int, seconds: float, rounds: Optional[int], reference=None):
    """The traced pass, checked against an untraced reference; ``(pass, metrics)``."""
    import harness
    import tracing

    if reference is None:
        reference = harness.run_pass(
            workload,
            seed,
            seconds=REFERENCE_SHARE * seconds,
            min_rounds=rounds or MIN_TRACED_ROUNDS,
            max_rounds=rounds,
        )
    with tracing.Tracer() as tracer:
        traced = harness.run_pass(
            workload,
            seed,
            seconds=(1.0 - REFERENCE_SHARE) * seconds,
            min_rounds=rounds or MIN_TRACED_ROUNDS,
            max_rounds=rounds,
            tracer=tracer,
        )
    traced.failures += reference.failures
    traced.gate_errors += reference.gate_errors
    if not traced.step_s or not reference.step_s:
        return traced, {}
    # The wrappers must not have changed what the program computes.
    shared = min(len(reference.update_norms), len(traced.update_norms))
    if reference.update_norms[:shared] != traced.update_norms[:shared]:
        first = next(
            i for i in range(shared) if reference.update_norms[i] != traced.update_norms[i]
        )
        traced.gate_errors.append(
            f"traced pass diverges from the untraced one at round {first}: update_norm "
            f"{traced.update_norms[first]!r} != {reference.update_norms[first]!r}"
        )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.jsonl")

    metrics = tracing.layer_metrics(
        tracer.spans,
        first_round=workload.warmup,
        rounds=len(traced.step_s),
        pass_wall_s=traced.wall_s,
        observed=traced.counters,
    )
    spawns = [span for span in tracer.spans if span[tracing.NAME] == "rpc.spawn"]
    metrics["rpc.spawn_s"] = sum(span[tracing.END] - span[tracing.START] for span in spawns)
    metrics["rpc.host_rss_mb"] = traced.host_rss_mb
    predicted_total = sum(traced.predicted.values())
    gaps = []
    for group, key in (("compute", "computation"), ("comm", "communication"), ("agg", "aggregation")):
        predicted = traced.predicted[key] / predicted_total
        metrics[f"cost.predicted_{group}_share"] = predicted
        gaps.append(abs(predicted - metrics[f"cost.measured_{group}_share"]))
    metrics["cost.share_err"] = max(gaps)
    metrics["trace.overhead_ratio"] = statistics.median(traced.step_s) / statistics.median(
        reference.step_s
    )
    return traced, metrics


def report(result, metrics: Dict[str, Dict[str, Any]], label: str) -> Dict[str, Any]:
    """Print one pass's metrics and gate verdict; return its result object."""
    print(f"== {label}: {len(result.step_s)} timed rounds, {result.failed} failed ==")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in result.failures + result.gate_errors[:10]:
        print(f"  GATE: {problem}", file=sys.stderr)
    correct = result.correct and bool(metrics)
    print(f"  correctness gate: {'passed' if correct else 'FAILED'}")
    return {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def _short_warmup(workload):
    """For runs of a fixed, small number of rounds: two warm-up rounds do."""
    return dataclasses.replace(workload, warmup=min(workload.warmup, 2))


def run_one(args, spec) -> int:
    """Contract mode: one workload, one pass kind, one JSON line."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.rounds:
        workload = _short_warmup(workload)
    if args.trace:
        result, values = measure_per_layer(workload, args.seed, args.seconds, args.rounds)
        declared = spec["per_layer"]
    else:
        result, values = measure_end_to_end(workload, args.seed, args.seconds, args.rounds)
        declared = spec["end_to_end"]
    metrics = _with_units(values, declared) if values else {}
    outcome = report(result, metrics, f"{workload.name} seed {args.seed} trace {args.trace}")
    if not metrics:
        return 1  # nothing was measured: no result line
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


def run_smoke(spec) -> int:
    """In-process workloads, a few rounds, both pass kinds, one JSON object."""
    from workloads import WORKLOADS

    outcome: Dict[str, Any] = {}
    for workload in WORKLOADS.values():
        if not workload.in_process:
            continue
        workload = _short_warmup(workload)
        untraced, e2e = measure_end_to_end(workload, 1, 0.0, SMOKE_ROUNDS)
        traced, layers = measure_per_layer(workload, 1, 0.0, SMOKE_ROUNDS, reference=untraced)
        outcome[workload.name] = {
            "correct": untraced.correct and traced.correct,
            "attempted": untraced.attempted,
            "failed": untraced.failed,
            "problems": traced.failures + traced.gate_errors,
            "end_to_end": _with_units(e2e, spec["end_to_end"]),
            "per_layer": _with_units(layers, spec["per_layer"]),
        }
    print(json.dumps(outcome))
    return 0 if all(entry["correct"] for entry in outcome.values()) else 1


# ---------------------------------------------------------------------- #
# Every workload, each pass in a fresh child interpreter
# ---------------------------------------------------------------------- #
def environment() -> Dict[str, Any]:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "executor_workers": 2,
    }


def run_all(args, spec) -> int:
    env = environment()
    print("environment: " + ", ".join(f"{key}={value}" for key, value in env.items()))
    results: Dict[str, Any] = {}
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        entry: Dict[str, Any] = {"why": workload["why"]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name]
                + ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE,
                text=True,
                check=False,
            )
            if child.returncode != 0:
                status = 1
            lines = child.stdout.rstrip().splitlines()
            try:
                outcome = json.loads(lines[-1])
            except (IndexError, ValueError):
                print("\n".join(lines))
                print(f"  {name} trace {trace}: no result (exit {child.returncode})")
                entry[key] = {}
                entry["correct"] = False
                continue
            print("\n".join(lines[:-1]))
            entry[key] = outcome["metrics"]
            if trace == 0:
                entry["attempted"] = outcome["attempted"]
                entry["failed"] = outcome["failed"]
                ratio = outcome["failed"] / outcome["attempted"]
                print(f"  {'round_failure_ratio':40s} {ratio:>16.6g} failed/attempted")
            entry["correct"] = entry.get("correct", True) and outcome["correct"]
        results[name] = entry
    out = Path(args.out) if args.out else OUT / f"e2e-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": args.seed, "seconds": args.seconds, "environment": env, "workloads": results},
            handle,
            indent=2,
        )
    print(f"wrote {out}")
    return status


# ---------------------------------------------------------------------- #
# Comparing two result files
# ---------------------------------------------------------------------- #
def compare(path_a: str, path_b: str, spec) -> int:
    """Print A, B and B/A per workload and metric; 1 if B regressed anywhere."""
    with open(path_a, encoding="utf-8") as handle:
        base = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        new = json.load(handle)["workloads"]
    offending: List[str] = []
    print(f"A = {path_a}\nB = {path_b}")
    for workload in spec["workloads"]:
        name = workload["name"]
        a, b = base.get(name, {}), new.get(name, {})
        print(f"{name}  (A: {a.get('attempted', 0)} rounds, B: {b.get('attempted', 0)} rounds)")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            try:
                value_a = a["end_to_end"][key]["value"]
                value_b = b["end_to_end"][key]["value"]
            except KeyError:
                offending.append(f"{name} {key}: missing from one side")
                continue
            change = (value_b - value_a) / abs(value_a)
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "REGRESSED"
            elif worse < -metric["bound"]:
                verdict = "better"
            row = (
                f"  {key:22s} A {value_a:>14.6g}  B {value_b:>14.6g} {metric['unit']:9s} "
                f"B/A {value_b / value_a:7.4f}  bound {metric['bound']:.3f}  {verdict}"
            )
            print(row)
            if verdict == "REGRESSED":
                offending.append(f"{name}{row}")
        ratio_a = a.get("failed", 0) / max(1, a.get("attempted", 1))
        ratio_b = b.get("failed", 0) / max(1, b.get("attempted", 1))
        print(f"  {'round_failure_ratio':22s} A {ratio_a:>14.6g}  B {ratio_b:>14.6g} failed/attempted")
        if ratio_b > ratio_a or not b.get("correct", False):
            offending.append(f"{name} round_failure_ratio {ratio_a} -> {ratio_b}, correct={b.get('correct')}")
    if offending:
        print("\nB is worse than A beyond the bound:")
        print("\n".join(offending))
        return 1
    print("\nno end-to-end metric of B is worse than A by more than its bound")
    return 0


# ---------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only and print one JSON result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="seconds of timed rounds per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None, help="run exactly this many timed rounds")
    parser.add_argument("--out", help="result file of a run over all workloads")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One BLAS thread per process, set before NumPy loads (node hosts inherit
    # it); an explicit setting is left alone.  The pools already fill the two
    # cores, and OpenBLAS's helper thread spins between calls: it doubles
    # cpu_s_per_round on the serial workloads and makes the threaded one
    # bistable from run to run (p50 33 .. 47 ms), see README.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # The process backend stages its spawn specs in a temporary directory;
    # keep that inside the checkout too.
    OUT.mkdir(exist_ok=True)
    tempfile.tempdir = str(OUT)
    if args.workload:
        known = [workload["name"] for workload in spec["workloads"]]
        if args.workload not in known:
            parser.error(f"unknown workload '{args.workload}'; choose from {known}")
        return run_one(args, spec)
    if args.smoke:
        return run_smoke(spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
