#!/usr/bin/env python3
"""Resident memory of each in-process end-to-end workload, phase by phase.

    python3 scripts/mem_phases.py [--seed 1] [--tree DIR]
    make bench-mem [SEED=1]

Runs each in-process workload of ``benchmarks/e2e/workloads.py`` in a fresh
interpreter along the harness's path and, after each phase, reads ``VmHWM``
(the peak resident set so far) and ``VmRSS`` (the resident set now) from
``/proc/self/status``.  The phases:

- ``imports``: NumPy and the package imported;
- ``build``: ``Controller(config).build()`` and the ``Session``;
- ``pristine eval``: the reporting server's ``compute_loss()``, the
  benchmark's reference point;
- ``round 1`` and ``round 50``: after that many ``Session.step()`` rounds;
- ``checkpoint``: after the warm-up plus the harness's timed rounds
  (``run.py``'s ``MIN_ROUNDS``), ``compute_loss()`` and
  ``compute_accuracy()`` — where the harness reads quality.

The end-to-end ``peak_rss_mb`` of an in-process workload is the last
``VmHWM``; the phase whose ``VmHWM`` first reaches it is what sets it.
``--tree`` measures another checkout (for instance a parent revision
unpacked with ``git archive``) with the same script.  Linux only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("imports", "build", "pristine eval", "round 1", "round 50", "checkpoint")


def status_mb() -> Dict[str, float]:
    """``VmHWM`` and ``VmRSS`` of this process, in MB (as the harness reads ``VmHWM``)."""
    values = {}
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                values[key] = int(rest.split()[0]) / 1024.0
    return values


def child(tree: Path, name: str, seed: int) -> None:
    """One workload, in this interpreter: a JSON line per phase on stdout."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e2e")]

    def report(phase: str) -> None:
        print(json.dumps({"phase": phase, **status_mb()}), flush=True)

    import numpy  # noqa: F401 - part of what the imports phase measures

    from repro.core.controller import Controller
    from repro.core.session import Session
    from run import MIN_ROUNDS
    from workloads import WORKLOADS

    report("imports")
    workload = WORKLOADS[name]
    deployment = Controller(workload.config(seed)).build()
    try:
        session = Session(deployment)
        report("build")
        server = session.reporting_server
        server.compute_loss()
        report("pristine eval")
        rounds = workload.warmup + MIN_ROUNDS
        for done in range(1, rounds + 1):
            session.step()
            if done in (1, 50):
                report(f"round {done}")
        server.compute_loss()
        server.compute_accuracy()
        report("checkpoint")
    finally:
        deployment.close()


def measure(tree: Path, name: str, seed: int) -> List[Dict[str, float]]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", name, "--tree", str(tree), "--seed", str(seed)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
    )
    if done.returncode != 0:
        raise SystemExit(f"{name}: child failed\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tree", type=Path, default=ROOT, help="the checkout to measure (default: this one)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if args.child:
        child(tree, args.child, args.seed)
        return 0
    sys.path.insert(0, str(tree / "benchmarks" / "e2e"))
    from workloads import WORKLOADS

    names = [name for name, workload in WORKLOADS.items() if workload.in_process]
    print(f"tree {tree}, seed {args.seed}")
    print(f"| workload | {' | '.join(PHASES)} |")
    print(f"|---|{'---|' * len(PHASES)}")
    for name in names:
        rows = {row["phase"]: row for row in measure(tree, name, args.seed)}
        cells = [f"{rows[phase]['VmHWM']:.1f} / {rows[phase]['VmRSS']:.1f}" for phase in PHASES]
        print(f"| `{name}` | {' | '.join(cells)} |")
    print("cells: VmHWM / VmRSS in MB after the phase")
    return 0


if __name__ == "__main__":
    sys.exit(main())
