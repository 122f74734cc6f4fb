#!/usr/bin/env python3
"""Throughput study — the cost of Byzantine resilience (Figures 6-8 in miniature).

Uses the analytic cost model to answer the paper's headline question — what is
the practical cost of Byzantine resilience? — for a configurable model and
cluster, printing the per-iteration latency breakdown and the slowdown of
every deployment relative to the vanilla baseline.

Run with:  python examples/throughput_study.py [model] [cpu|gpu]
"""

from __future__ import annotations

import sys

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig
from repro.exceptions import ConfigurationError
from repro.nn.models import PAPER_MODEL_DIMENSIONS

DEPLOYMENTS = ["vanilla", "aggregathor", "crash-tolerant", "ssmw", "msmw", "decentralized"]


def main() -> None:
    model_name = sys.argv[1] if len(sys.argv) > 1 else "resnet50"
    device = sys.argv[2] if len(sys.argv) > 2 else "cpu"
    if model_name not in PAPER_MODEL_DIMENSIONS:
        raise SystemExit(f"unknown model '{model_name}'; choose from {sorted(PAPER_MODEL_DIMENSIONS)}")

    if device not in PAPER_TESTBEDS:
        raise SystemExit(f"unknown device '{device}'; choose from {sorted(PAPER_TESTBEDS)}")
    testbed = PAPER_TESTBEDS[device]
    model = ThroughputModel(ClusterConfig(**testbed), model=model_name)

    print(
        f"model={model_name} (d={PAPER_MODEL_DIMENSIONS[model_name]:,}), device={device}, "
        f"framework={testbed['framework']}, "
        f"{testbed['num_workers']} workers / {testbed['num_servers']} servers"
    )
    header = f"{'deployment':16s} {'compute':>9s} {'comm':>9s} {'agg':>9s} {'total':>9s} {'slowdown':>9s}"
    print(header)
    print("-" * len(header))
    vanilla_total = model.breakdown("vanilla").total
    for deployment in DEPLOYMENTS:
        try:
            b = model.breakdown(deployment)
        except ConfigurationError as error:  # the runtime would not build this cluster
            print(f"{deployment:16s} refused: {error}")
            continue
        print(
            f"{deployment:16s} {b.computation:9.3f} {b.communication:9.3f} "
            f"{b.aggregation:9.3f} {b.total:9.3f} {b.total / vanilla_total:8.2f}x"
        )
    print(
        "\ncommunication dominates the overhead of every fault-tolerant deployment,\n"
        "and tolerating Byzantine servers (msmw) costs more than tolerating only\n"
        "Byzantine workers (ssmw) — the paper's two headline findings."
    )


if __name__ == "__main__":
    main()
