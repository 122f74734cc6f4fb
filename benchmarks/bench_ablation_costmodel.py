"""Ablation — which cost-model ingredients drive the throughput results.

DESIGN.md calls out the cost model's design decisions: the serialization /
context-switch overhead of leaving the framework runtime, the optimized
vanilla runtime's bandwidth advantage, and the GPU-direct collectives of the
PyTorch path.  This ablation switches each ingredient off and reports how the
headline slowdowns (Figure 6/7) respond, showing which conclusions depend on
which ingredient.
"""

from __future__ import annotations

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig
from repro.network.cost import NetworkParameters


def build(network: NetworkParameters | None = None) -> ThroughputModel:
    config = ClusterConfig(**{**PAPER_TESTBEDS["cpu"], "gradient_gar": "bulyan", "asynchronous": True})
    return ThroughputModel(config, model="resnet50", network=network)


def test_ablation_cost_model_ingredients(benchmark, table_printer):
    """Slowdowns with serialization overhead and vanilla-runtime advantage removed."""
    default = build()
    no_serialization = build(
        NetworkParameters(serialization_bandwidth_bytes_per_s=1e15, context_switch_overhead=0.0)
    )
    no_vanilla_advantage = build(NetworkParameters(vanilla_efficiency=1.0, gpu_direct_efficiency=1.0))

    deployments = ["ssmw", "crash-tolerant", "msmw", "decentralized"]
    rows = []
    slowdowns = {}
    for label, model in [
        ("full model", default),
        ("no serialization overhead", no_serialization),
        ("no vanilla-runtime advantage", no_vanilla_advantage),
    ]:
        slowdowns[label] = {d: model.slowdown(d) for d in deployments}
        rows.append([label] + [slowdowns[label][d] for d in deployments])
    table_printer(
        "Ablation — slowdown vs vanilla (CPU, ResNet-50) per cost-model variant",
        ["variant"] + deployments,
        rows,
    )

    # Removing either ingredient shrinks the measured cost of Byzantine
    # resilience, i.e. both genuinely contribute to the Figure 6/7 overheads.
    for deployment in deployments:
        assert slowdowns["no serialization overhead"][deployment] < slowdowns["full model"][deployment]
        assert slowdowns["no vanilla-runtime advantage"][deployment] < slowdowns["full model"][deployment]

    # The qualitative ordering of the paper survives every ablation: vanilla is
    # fastest, MSMW costs more than SSMW, decentralized is the most expensive.
    for label in slowdowns:
        assert slowdowns[label]["msmw"] > slowdowns[label]["ssmw"] > 1.0
        assert slowdowns[label]["decentralized"] == max(slowdowns[label].values())

    benchmark(lambda: build().slowdown("msmw"))


def test_ablation_pipelining_and_gpu_collectives(benchmark, table_printer):
    """The PyTorch-path optimisations (pipelined aggregation, GPU-direct collectives)."""
    pytorch = ThroughputModel(ClusterConfig(**PAPER_TESTBEDS["gpu"]), model="resnet50")
    tensorflow_on_gpu = ThroughputModel(
        ClusterConfig(**{**PAPER_TESTBEDS["gpu"], "framework": "tensorflow"}), model="resnet50"
    )

    rows = []
    for label, model in [("pytorch (pipelined, gpu-direct)", pytorch), ("tensorflow path on gpu", tensorflow_on_gpu)]:
        b = model.breakdown("msmw")
        rows.append((label, b.communication, b.aggregation, b.total))
    table_printer(
        "Ablation — MSMW on GPU: PyTorch communication path vs TensorFlow/gRPC path",
        ["path", "communication", "aggregation", "total"],
        rows,
    )

    # The PyTorch path (no context switch, GPU-to-GPU, pipelined aggregation)
    # is strictly cheaper — the reason the paper implements it (Section 4.2).
    assert pytorch.breakdown("msmw").total < tensorflow_on_gpu.breakdown("msmw").total

    benchmark(lambda: pytorch.breakdown("msmw"))
