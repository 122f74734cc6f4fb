"""Command-line interface for the Garfield reproduction.

Mirrors the role of the paper's Controller scripts: launching experiments and
inspecting the library's building blocks without writing Python.

Examples
--------
List the available GARs, attacks, models and deployments::

    python -m repro list

Run a small SSMW training job under the reversed-vector attack and save the
result as JSON::

    python -m repro run --deployment ssmw --workers 8 --byzantine-workers 2 \
        --attacking-workers 2 --attack reversed --gar multi-krum \
        --iterations 30 --output result.json

Print the analytic per-iteration latency breakdown of every deployment for a
given model and device (the Figure 6/7 view)::

    python -m repro throughput --model resnet50 --device cpu
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.aggregators import available_gars
from repro.attacks import available_attacks
from repro.core.cluster import ClusterConfig
from repro.core.executor import available_executors
from repro.core.scenario import SCENARIO_LIBRARY, available_scenarios, config_for_scenario
from repro.core.session import Session, available_applications
from repro.detection import available_detectors
from repro.network.topology import DEPLOYMENTS
from repro.nn.models import MODEL_REGISTRY, PAPER_MODEL_DIMENSIONS
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Garfield (DSN 2021) reproduction — Byzantine-resilient distributed SGD",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # ------------------------------------------------------------------ #
    list_parser = subparsers.add_parser("list", help="list GARs, attacks, models and deployments")
    list_parser.set_defaults(handler=_cmd_list)

    # ------------------------------------------------------------------ #
    run_parser = subparsers.add_parser("run", help="run one training deployment end to end")
    run_parser.add_argument("--deployment", choices=sorted(DEPLOYMENTS), default="ssmw")
    run_parser.add_argument("--workers", type=int, default=6)
    run_parser.add_argument("--byzantine-workers", type=int, default=0)
    run_parser.add_argument("--attacking-workers", type=int, default=0)
    run_parser.add_argument("--servers", type=int, default=1)
    run_parser.add_argument("--byzantine-servers", type=int, default=0)
    run_parser.add_argument("--attacking-servers", type=int, default=0)
    run_parser.add_argument("--attack", default="random", help="worker/server attack name")
    run_parser.add_argument("--gar", default="multi-krum", help="gradient aggregation rule")
    run_parser.add_argument("--model-gar", default="median", help="model aggregation rule")
    run_parser.add_argument("--model", default="logistic")
    run_parser.add_argument("--dataset", choices=["mnist", "cifar10"], default="mnist")
    run_parser.add_argument("--dataset-size", type=int, default=400)
    run_parser.add_argument("--batch-size", type=int, default=16)
    run_parser.add_argument("--learning-rate", type=float, default=0.2)
    run_parser.add_argument("--iterations", type=int, default=30)
    run_parser.add_argument("--accuracy-every", type=int, default=10)
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument(
        "--executor",
        choices=available_executors(),
        default="serial",
        help=(
            "engine servicing RPC fan-outs: serial (deterministic, in-order), "
            "threaded (concurrent peers), process (every node a real OS "
            "subprocess over TCP); all three reproduce the same trace for a "
            "fixed seed"
        ),
    )
    run_parser.add_argument(
        "--wire-format",
        default="float64",
        help=(
            "encoding of gradient/model reply payloads: base[+delta][+zlib|+zstd] "
            "with base float64 (bit-exact default), float32, float16 or int8 "
            "(quantized); e.g. 'float16' or 'int8+delta+zlib'"
        ),
    )
    run_parser.add_argument(
        "--detector",
        default="",
        help=(
            "online Byzantine detection: name of a registered detector "
            "(distance, mad, variance) scoring workers each round, weighting "
            "their gradients by reputation and evicting persistent outliers; "
            "empty (default) disables detection entirely"
        ),
    )
    run_parser.add_argument(
        "--retry",
        action="store_true",
        help="self-healing: retry idempotent pulls with bounded exponential "
        "backoff on retryable transport errors (process backend)",
    )
    run_parser.add_argument(
        "--hedge",
        action="store_true",
        help="self-healing: re-issue straggling or lost quorum pulls to "
        "reserve peers, ranked by tracked per-peer latency",
    )
    run_parser.add_argument(
        "--supervise",
        action="store_true",
        help="self-healing: respawn unscripted host deaths from their last "
        "state snapshot under a restart budget (process backend)",
    )
    run_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "split the flat parameter vector into this many contiguous slices "
            "for the msmw gradient phase (shard-parallel aggregation; "
            "coordinate-wise GARs shard exactly, distance-based GARs run the "
            "two-phase protocol); 1 (default) keeps the classic full-d path"
        ),
    )
    run_parser.add_argument("--asynchronous", action="store_true")
    run_parser.add_argument("--non-iid", action="store_true")
    run_parser.add_argument(
        "--scenario",
        help="chaos scenario driving the run: a bundled name (see 'repro scenarios') "
        "or a path to a scenario JSON file; the scenario's cluster shape overrides "
        "conflicting flags",
    )
    run_parser.add_argument(
        "--trace-output", help="write the deterministic scenario trace to this JSON file"
    )
    run_parser.add_argument("--output", help="write the TrainingResult to this JSON file")
    run_parser.add_argument(
        "--stream",
        action="store_true",
        help="print one line per training round as the session streams "
        "(iteration, quorum, update norm, loss/accuracy)",
    )
    run_parser.add_argument(
        "--until",
        type=int,
        default=None,
        help="stop the session after this many rounds (exclusive bound; "
        "default: run the configured num_iterations)",
    )
    run_parser.set_defaults(handler=_cmd_run)

    # ------------------------------------------------------------------ #
    scenarios_parser = subparsers.add_parser(
        "scenarios", help="list the bundled chaos scenarios and their timelines"
    )
    scenarios_parser.set_defaults(handler=_cmd_scenarios)

    # ------------------------------------------------------------------ #
    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="run a generative scenario-fuzzing campaign over the Session engine",
        description=(
            "Generate seeded chaos scenarios at, below and beyond each "
            "deployment's fault margin, check the resilience invariants on "
            "every run, and shrink any failure to a minimal replayable spec "
            "(see docs/fuzzing.md)."
        ),
    )
    fuzz_parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz_parser.add_argument("--count", type=int, default=30, help="number of generated scenarios")
    fuzz_parser.add_argument(
        "--start", type=int, default=0, help="first case index (cases are (seed, index)-addressed)"
    )
    fuzz_parser.add_argument(
        "--deployments",
        default=None,
        help="comma-separated deployments to fuzz (default: all fuzzable ones)",
    )
    fuzz_parser.add_argument(
        "--budgets",
        default=None,
        help="comma-separated fault budgets to sweep (below,at,beyond)",
    )
    fuzz_parser.add_argument(
        "--cross-executor-every",
        type=int,
        default=3,
        help="also replay every Nth case on the threaded executor (0 = never)",
    )
    fuzz_parser.add_argument(
        "--pause-resume-every",
        type=int,
        default=5,
        help="also replay every Nth case with a mid-run pause/resume (0 = never)",
    )
    fuzz_parser.add_argument(
        "--supervised",
        action="store_true",
        help="run every generated scenario under the self-healing runtime "
        "(retry + hedged pulls + supervision) and additionally require that "
        "no tolerated-fault run ends in a quorum timeout",
    )
    fuzz_parser.add_argument(
        "--no-determinism",
        action="store_true",
        help="skip the serial rerun trace comparison (faster, weaker)",
    )
    fuzz_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="keep failing specs as generated instead of ddmin-shrinking them",
    )
    fuzz_parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="write each failing (shrunk) spec to DIR as scenario JSON "
        "replayable via 'repro run --scenario <file>'",
    )
    fuzz_parser.add_argument(
        "--report", metavar="FILE", default=None, help="write the campaign summary JSON to FILE"
    )
    fuzz_parser.add_argument(
        "--quiet", action="store_true", help="only print the final summary line"
    )
    fuzz_parser.set_defaults(handler=_cmd_fuzz)

    # ------------------------------------------------------------------ #
    throughput_parser = subparsers.add_parser(
        "throughput", help="print the analytic per-iteration latency breakdown per deployment"
    )
    throughput_parser.add_argument("--model", choices=sorted(PAPER_MODEL_DIMENSIONS), default="resnet50")
    throughput_parser.add_argument("--device", choices=["cpu", "gpu"], default="cpu")
    throughput_parser.add_argument("--workers", type=int, default=None)
    throughput_parser.add_argument("--servers", type=int, default=None)
    throughput_parser.add_argument("--byzantine-workers", type=int, default=3)
    throughput_parser.add_argument("--byzantine-servers", type=int, default=1)
    throughput_parser.add_argument("--gar", default="multi-krum")
    throughput_parser.set_defaults(handler=_cmd_throughput)

    return parser


# ---------------------------------------------------------------------- #
def _cmd_list(args: argparse.Namespace) -> int:
    print("deployments :", ", ".join(available_applications()))
    print("GARs        :", ", ".join(available_gars()))
    print("attacks     :", ", ".join(available_attacks()))
    print("models      :", ", ".join(sorted(MODEL_REGISTRY)))
    print("detectors   :", ", ".join(available_detectors()))
    print("scenarios   :", ", ".join(available_scenarios()))
    return 0


def _format_event(action: str, target=None, value=None) -> str:
    """One-line rendering of a scenario event's action + operands."""
    detail = " ".join(str(part) for part in (target, value) if part is not None)
    return f"{action}  {detail}".rstrip()


def _cmd_scenarios(args: argparse.Namespace) -> int:
    for name in available_scenarios():
        spec = SCENARIO_LIBRARY[name]
        print(f"{name}: {spec.description}")
        for event in spec.events:
            print(f"    round {event.round:3d}  {_format_event(event.action, event.target, event.value)}")
    return 0


def _print_round(result) -> None:
    """One streamed line per round (``repro run --stream``)."""
    quality = ""
    if result.loss is not None:
        quality += f"  loss {result.loss:.4f}"
    if result.accuracy is not None:
        quality += f"  accuracy {result.accuracy:.3f}"
    norm = "n/a" if result.update_norm is None else f"{result.update_norm:.4f}"
    print(
        f"round {result.iteration:4d}  quorum {result.quorum:2d}  "
        f"update-norm {norm}{quality}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    kwargs = dict(
        deployment=args.deployment,
        num_workers=args.workers,
        num_byzantine_workers=args.byzantine_workers,
        num_attacking_workers=args.attacking_workers,
        num_servers=args.servers,
        num_byzantine_servers=args.byzantine_servers,
        num_attacking_servers=args.attacking_servers,
        worker_attack=args.attack,
        server_attack=args.attack,
        gradient_gar=args.gar,
        model_gar=args.model_gar,
        model=args.model,
        dataset=args.dataset,
        dataset_size=args.dataset_size,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        num_iterations=args.iterations,
        accuracy_every=args.accuracy_every,
        asynchronous=args.asynchronous,
        non_iid=args.non_iid,
        executor=args.executor,
        wire_format=args.wire_format,
        detector=args.detector,
        shards=args.shards,
        seed=args.seed,
    )
    resilience = {
        key: True
        for key, enabled in (
            ("retry", args.retry),
            ("hedge", args.hedge),
            ("supervise", args.supervise),
        )
        if enabled
    }
    if resilience:
        # Only materialised when a flag is set, so flag-less runs build the
        # exact same config dict as before the resilience surface existed.
        kwargs["resilience"] = resilience
    if args.scenario:
        config = config_for_scenario(args.scenario, **kwargs)
    else:
        config = ClusterConfig(**kwargs)
    # The CLI is a thin wrapper over the streaming Session API: one engine
    # behind every deployment, whether the rounds are streamed or batched.
    with Session(config=config) as session:
        if args.stream:
            session.on_round(_print_round)
        session.run(until=args.until)
    result = session.result()
    print(result.summary())
    if result.trace is not None:
        print(f"scenario '{result.trace.scenario}' trace fingerprint {result.trace.fingerprint()}")
        for entry in result.trace.rounds:
            for event in entry["events"]:
                rendered = _format_event(event["action"], event.get("target"), event.get("value"))
                print(f"  round {entry['round']:4d}  event: {rendered}")
        if args.trace_output:
            result.trace.save(args.trace_output)
            print(f"trace written to {args.trace_output}")
    elif args.trace_output:
        print(
            f"warning: no trace recorded (--trace-output requires --scenario); "
            f"{args.trace_output} not written",
            file=sys.stderr,
        )
    for iteration, accuracy in result.accuracy_history:
        print(f"  iteration {iteration:4d}  accuracy {accuracy:.3f}")
    breakdown = result.breakdown
    print(
        "per-iteration time: "
        f"compute {breakdown['computation']:.4f}s, "
        f"communication {breakdown['communication']:.4f}s, "
        f"aggregation {breakdown['aggregation']:.4f}s"
    )
    if args.output:
        result.save_json(args.output)
        print(f"result written to {args.output}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.core.fuzz import BUDGETS, FUZZ_DEPLOYMENTS, run_campaign

    deployments = (
        tuple(part.strip() for part in args.deployments.split(",") if part.strip())
        if args.deployments
        else FUZZ_DEPLOYMENTS
    )
    budgets = (
        tuple(part.strip() for part in args.budgets.split(",") if part.strip())
        if args.budgets
        else BUDGETS
    )

    def progress(report) -> None:
        if args.quiet:
            return
        case = report.case
        if report.passed:
            verdict = "ok"
        else:
            verdict = "FAIL " + ", ".join(sorted({v.invariant for v in report.violations}))
        outcome = report.error or ("diverged" if report.diverged else "completed")
        print(
            f"case {case.index:4d}  {case.deployment:14s} budget={case.budget:6s} "
            f"{case.mechanism:12s} rounds={report.rounds_run:3d} {outcome:14s} {verdict}"
        )

    result = run_campaign(
        seed=args.seed,
        count=args.count,
        start=args.start,
        deployments=deployments,
        budgets=budgets,
        supervised=args.supervised,
        determinism=not args.no_determinism,
        cross_executor_every=args.cross_executor_every,
        pause_resume_every=args.pause_resume_every,
        shrink=not args.no_shrink,
        save_dir=args.save,
        on_report=progress,
    )
    if args.report:
        result.save_report(args.report)
        print(f"campaign report written to {args.report}")
    failures = result.failures
    print(
        f"fuzz: {len(result.reports)} scenarios (seed {args.seed}), "
        f"{len(failures)} invariant failure(s)"
    )
    for report in failures:
        invariants = ", ".join(sorted({v.invariant for v in report.violations}))
        where = f" -> {report.saved_path}" if report.saved_path else ""
        print(f"  {report.case.name}: {invariants}{where}")
        print(
            f"    replay: repro fuzz --seed {report.case.seed} "
            f"--start {report.case.index} --count 1"
        )
    return 0 if result.passed else 1


def _cmd_throughput(args: argparse.Namespace) -> int:
    from repro.apps.throughput import ThroughputModel

    framework = "tensorflow" if args.device == "cpu" else "pytorch"
    workers = args.workers if args.workers is not None else (18 if args.device == "cpu" else 10)
    servers = args.servers if args.servers is not None else (6 if args.device == "cpu" else 3)
    model = ThroughputModel(
        model=args.model,
        device=args.device,
        framework=framework,
        num_workers=workers,
        num_byzantine_workers=args.byzantine_workers,
        num_servers=servers,
        num_byzantine_servers=args.byzantine_servers,
        gradient_gar=args.gar,
        model_gar="median",
    )
    vanilla_total = model.breakdown("vanilla").total
    print(f"model={args.model}, device={args.device}, {workers} workers / {servers} servers")
    print(f"{'deployment':16s} {'compute':>9s} {'comm':>9s} {'agg':>9s} {'total':>9s} {'slowdown':>9s}")
    for deployment in ["vanilla", "aggregathor", "crash-tolerant", "ssmw", "msmw", "decentralized"]:
        b = model.breakdown(deployment)
        print(
            f"{deployment:16s} {b.computation:9.3f} {b.communication:9.3f} "
            f"{b.aggregation:9.3f} {b.total:9.3f} {b.total / vanilla_total:8.2f}x"
        )
    return 0


# ---------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
