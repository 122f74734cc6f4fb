"""Figures 15 and 16 (appendix) — PyTorch-specific throughput results.

Figure 15 shows the slowdown of the crash-tolerant and Garfield deployments
(normalised to vanilla PyTorch) for the six models on the GPU cluster: the
cost of fault tolerance is barely visible for the small networks and the
Garfield slowdown is higher than the TensorFlow one because vanilla PyTorch's
``reduce()`` uses GPU-to-GPU communication and averages on the fly.
Figure 16 breaks the per-iteration time into computation and a combined
communication+aggregation component (Garfield on PyTorch pipelines the two).
"""

from __future__ import annotations

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig

MODELS = ["mnist_cnn", "cifarnet", "inception", "resnet50", "resnet152", "vgg"]


def build(model_name: str) -> ThroughputModel:
    return ThroughputModel(ClusterConfig(**PAPER_TESTBEDS["gpu"]), model=model_name)


def test_fig15_pytorch_slowdowns(benchmark, table_printer):
    """Figure 15: slowdown vs vanilla PyTorch per model (GPU cluster)."""
    rows = []
    table = {}
    for name in MODELS:
        model = build(name)
        crash = model.slowdown("crash-tolerant")
        garfield = model.slowdown("msmw")
        table[name] = (crash, garfield)
        rows.append((name, crash, garfield))
    table_printer(
        "Figure 15 — slowdown vs vanilla PyTorch (GPU)",
        ["model", "crash-tolerant", "garfield (msmw)"],
        rows,
    )

    for name in MODELS:
        crash, garfield = table[name]
        assert garfield > 1.0 and crash > 1.0
        # Byzantine resilience costs more than crash resilience, moderately.
        assert crash <= garfield <= 3.0 * crash
    # The cost of fault tolerance is smallest for the small networks.
    assert table["mnist_cnn"][1] <= table["vgg"][1] + 0.5

    benchmark(lambda: build("resnet50").slowdown("msmw"))


def test_fig16_pytorch_breakdown(benchmark, table_printer):
    """Figure 16: per-iteration time breakdown on the GPU cluster (ResNet-50)."""
    model = build("resnet50")
    deployments = ["vanilla", "crash-tolerant", "msmw"]
    breakdowns = {d: model.breakdown(d) for d in deployments}

    rows = [
        (d, b.computation, b.communication + b.aggregation, b.total)
        for d, b in breakdowns.items()
    ]
    table_printer(
        "Figure 16 — latency per iteration (s), GPU, ResNet-50 (comm+agg combined)",
        ["system", "computation", "communication+aggregation", "total"],
        rows,
    )

    vanilla = breakdowns["vanilla"]
    # Vanilla PyTorch has the lowest communication cost (reduce() over nccl).
    assert vanilla.communication < breakdowns["crash-tolerant"].communication
    assert vanilla.communication < breakdowns["msmw"].communication
    # The combined communication+aggregation bar is highest for Garfield: more
    # rounds, more messages and robust (not average) aggregation.
    combined = {d: b.communication + b.aggregation for d, b in breakdowns.items()}
    assert combined["msmw"] > combined["crash-tolerant"] > combined["vanilla"]

    benchmark(lambda: build("vgg").breakdown("msmw"))
