"""Figure 7 — overhead breakdown (computation / communication / aggregation).

The paper breaks down the average per-iteration latency of every deployment
when training ResNet-50 on the CPU cluster, showing that computation time is
roughly constant, communication dominates the overhead (75%-86%) and robust
aggregation contributes little (~11%).
"""

from __future__ import annotations

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig

DEPLOYMENTS = ["vanilla", "crash-tolerant", "ssmw", "msmw", "decentralized"]


def model() -> ThroughputModel:
    return ThroughputModel(
        ClusterConfig(**{**PAPER_TESTBEDS["cpu"], "gradient_gar": "bulyan", "asynchronous": True}), model="resnet50"
    )


def test_fig7_latency_breakdown(benchmark, table_printer):
    """Figure 7: latency per iteration split by phase, CPU cluster, ResNet-50."""
    throughput_model = model()
    breakdowns = {d: throughput_model.breakdown(d) for d in DEPLOYMENTS}

    rows = [
        (d, b.computation, b.communication, b.aggregation, b.total)
        for d, b in breakdowns.items()
    ]
    table_printer(
        "Figure 7 — latency per iteration (s), CPU, ResNet-50",
        ["system", "computation", "communication", "aggregation", "total"],
        rows,
    )

    vanilla = breakdowns["vanilla"]
    # Computation time is the same for every deployment.
    assert all(abs(b.computation - vanilla.computation) < 1e-9 for b in breakdowns.values())

    for name in ["ssmw", "msmw", "decentralized"]:
        b = breakdowns[name]
        overhead = b.total - vanilla.total
        communication_share = (b.communication - vanilla.communication) / overhead
        aggregation_share = (b.aggregation - vanilla.aggregation) / overhead
        # Communication accounts for the bulk of the overhead, aggregation for little.
        assert communication_share > 0.75
        assert aggregation_share < 0.15

    # Crash tolerance needs more communication than SSMW (paper: ~22% more);
    # MSMW needs more than crash tolerance (paper: ~42% more than SSMW).
    assert breakdowns["crash-tolerant"].communication > breakdowns["ssmw"].communication
    assert breakdowns["msmw"].communication > breakdowns["crash-tolerant"].communication

    # Deployments with a model-aggregation round (MSMW, decentralized) pay far
    # more aggregation time than the averaging-only crash-tolerant protocol.
    assert breakdowns["decentralized"].aggregation > 2.0 * breakdowns["crash-tolerant"].aggregation
    assert breakdowns["msmw"].aggregation > 2.0 * breakdowns["crash-tolerant"].aggregation

    benchmark(lambda: model().breakdown("decentralized"))
