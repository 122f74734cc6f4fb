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
        --attacking-workers 2 --worker-attack reversed --gradient-gar multi-krum \
        --model logistic --iterations 30 --output result.json

Print the analytic per-iteration latency breakdown of every deployment for a
given model and device (the Figure 6/7 view)::

    python -m repro throughput --model resnet50 --device cpu
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from typing import Optional, Sequence, Tuple

from repro.aggregators import available_gars
from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.attacks import available_attacks
from repro.core.cluster import ClusterConfig
from repro.core.scenario import SCENARIO_LIBRARY, available_scenarios, build_config
from repro.core.session import Session, available_applications
from repro.detection import available_detectors
from repro.exceptions import ConfigurationError
from repro.network.resilience import ResilienceConfig
from repro.nn.models import MODEL_REGISTRY, PAPER_MODEL_DIMENSIONS
from repro.version import __version__

#: The ClusterConfig fields a ``repro run`` namespace may carry.
_CONFIG_FIELDS = frozenset(field.name for field in dataclasses.fields(ClusterConfig))


def config_flag(name: str) -> str:
    """The run flag of a config field: ``num_workers`` -> ``--workers``."""
    return "--" + name.removeprefix("num_").replace("_", "-")


class _ResilienceOption(argparse.Action):
    """``--retry`` / ``--hedge`` / ``--supervise``: one key of ``resilience`` on."""

    def __init__(self, option_strings, dest, **kwargs) -> None:
        super().__init__(option_strings, "resilience", nargs=0, **kwargs)
        self.option = dest

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        namespace.resilience = {**getattr(namespace, "resilience", {}), self.option: True}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per scalar ``ClusterConfig`` field and per resilience option.

    Every flag defaults to ``SUPPRESS``, so the parsed namespace holds exactly
    the fields the user set.
    """
    hints = typing.get_type_hints(ClusterConfig)
    for field in dataclasses.fields(ClusterConfig):
        kind = hints[field.name]
        if field.name == "resilience":
            for option in dataclasses.fields(ResilienceConfig):
                parser.add_argument(
                    config_flag(option.name), action=_ResilienceOption, dest=option.name,
                    default=argparse.SUPPRESS, help="resilience option (default: off)",
                )
        elif kind is bool:
            parser.add_argument(
                config_flag(field.name), action="store_true", dest=field.name,
                default=argparse.SUPPRESS, help=f"bool (default: {field.default})",
            )
        elif kind in (int, float, str):
            parser.add_argument(
                config_flag(field.name), type=kind, dest=field.name, metavar=kind.__name__.upper(),
                default=argparse.SUPPRESS, help=f"default: {field.default!r}",
            )


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
    run_parser = subparsers.add_parser(
        "run",
        help="run one training deployment end to end",
        description=(
            "Every ClusterConfig field is a flag, named by dropping 'num_' and "
            "turning '_' into '-' (straggler_factors is Python/JSON only); see "
            "docs/api.md for what each field means.  A flag you do not pass is "
            "no override: the field keeps its ClusterConfig default, or the "
            "value --scenario gives it."
        ),
        allow_abbrev=False,
    )
    _add_config_flags(run_parser)
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
        help="comma-separated registered deployments whose shape leaves a fault margin "
        "(default: the five bundled ones)",
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
    throughput_parser.add_argument("--device", choices=sorted(PAPER_TESTBEDS), default="cpu")
    # An unset cluster flag keeps the --device testbed's value.
    for name in ("num_workers", "num_servers", "num_byzantine_workers", "num_byzantine_servers"):
        throughput_parser.add_argument(config_flag(name), type=int, dest=name, default=argparse.SUPPRESS)
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
    config = build_config(**{name: value for name, value in vars(args).items() if name in _CONFIG_FIELDS})
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

    def listed(value: Optional[str], default: Tuple[str, ...]) -> Tuple[str, ...]:
        return tuple(part.strip() for part in value.split(",") if part.strip()) if value else default


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
        deployments=listed(args.deployments, FUZZ_DEPLOYMENTS),
        budgets=listed(args.budgets, BUDGETS),
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
    print("layers: " + "; ".join(
        f"{layer} " + " ".join(f"{value}={n}" for value, n in sorted(tally.items()))
        for layer, tally in result.layers.items()
    ))
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
    cluster = {key: value for key, value in vars(args).items() if key.startswith("num_")}
    config = ClusterConfig(**{**PAPER_TESTBEDS[args.device], **cluster, "gradient_gar": args.gar})
    model = ThroughputModel(config, model=args.model)
    vanilla_total = model.breakdown("vanilla").total
    print(
        f"model={args.model}, device={args.device}, "
        f"{config.num_workers} workers / {config.num_servers} servers"
    )
    print(f"{'deployment':16s} {'compute':>9s} {'comm':>9s} {'agg':>9s} {'total':>9s} {'slowdown':>9s}")
    for deployment in available_applications():
        try:
            b = model.breakdown(deployment)
        except ConfigurationError as error:
            print(f"{deployment:16s} refused: {error}")
            continue
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
    try:
        return args.handler(args)
    except ConfigurationError as error:  # a bad value, reported as argparse reports one
        parser.exit(2, f"{parser.prog}: error: {error}\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
