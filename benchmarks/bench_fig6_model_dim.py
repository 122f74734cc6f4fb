"""Figure 6 — throughput slowdown of fault-tolerant systems vs model dimension.

The slowdown of each fault-tolerant deployment is normalised to the vanilla
baseline's throughput, for the six Table 1 models, on the CPU cluster
(18 workers / 6 servers, TensorFlow, Figure 6a) and the GPU cluster
(10 workers / 3 servers, PyTorch, Figure 6b).
"""

from __future__ import annotations

from conftest import priced

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig

MODELS = ["mnist_cnn", "cifarnet", "inception", "resnet50", "resnet200", "vgg"]
DEPLOYMENTS = ["crash-tolerant", "ssmw", "msmw", "decentralized"]


#: The GPU testbed's 10 workers at f_w = 3: a decentralized node waits for
#: n_w - f_w = 7 gradients, below Multi-Krum's 2 f_w + 3.
GPU_DECENTRALIZED_REFUSED = (
    "refused: GAR 'multi-krum' needs at least 9 gradients to tolerate f=3, but the deployment only collects 7"
)


def cpu_model(name: str) -> ThroughputModel:
    return ThroughputModel(
        ClusterConfig(**{**PAPER_TESTBEDS["cpu"], "gradient_gar": "bulyan", "asynchronous": True}), model=name
    )


def gpu_model(name: str) -> ThroughputModel:
    return ThroughputModel(ClusterConfig(**PAPER_TESTBEDS["gpu"]), model=name)


def slowdown_table(builder, title, printer):
    table = {}
    rows = []
    for name in MODELS:
        model = builder(name)
        slowdowns = {d: priced(lambda: model.slowdown(d)) for d in DEPLOYMENTS}
        table[name] = slowdowns
        rows.append([name] + [slowdowns[d] for d in DEPLOYMENTS])
    printer(title, ["model"] + DEPLOYMENTS, rows)
    return table


def test_fig6a_cpu_slowdowns(benchmark, table_printer):
    """Figure 6a: slowdown vs vanilla TensorFlow on the CPU cluster."""
    table = slowdown_table(cpu_model, "Figure 6a — slowdown vs vanilla (CPU)", table_printer)

    for name in MODELS:
        slowdowns = table[name]
        # Every fault-tolerant deployment is slower than vanilla.
        assert all(value > 1.0 for value in slowdowns.values())
        # Decentralized learning is the most expensive; MSMW costs more than SSMW.
        assert slowdowns["decentralized"] == max(slowdowns.values())
        assert slowdowns["msmw"] > slowdowns["ssmw"]
        # SSMW (Byzantine workers only) costs no more than crash tolerance.
        assert slowdowns["ssmw"] <= slowdowns["crash-tolerant"] * 1.05

    # Overhead saturates: the big-model slowdowns stay within the range seen
    # for mid-sized models instead of growing without bound.
    assert table["vgg"]["msmw"] < 2.0 * table["resnet50"]["msmw"]

    benchmark(lambda: cpu_model("resnet50").breakdown("msmw"))


def test_fig6b_gpu_slowdowns(benchmark, table_printer):
    """Figure 6b: slowdown vs vanilla PyTorch on the GPU cluster."""
    table = slowdown_table(gpu_model, "Figure 6b — slowdown vs vanilla (GPU)", table_printer)

    for name in MODELS:
        slowdowns = table[name]
        # The decentralized cell is refused; every other is priced.
        assert slowdowns.pop("decentralized") == GPU_DECENTRALIZED_REFUSED
        assert all(value > 1.0 for value in slowdowns.values())

    # GPU deployments use fewer machines, so the replicated-server slowdown is
    # smaller than on the CPU cluster (Section 6.6).
    cpu_worst = max(cpu_model(m).slowdown("msmw") for m in ["resnet50", "vgg"])
    gpu_worst = max(gpu_model(m).slowdown("msmw") for m in ["resnet50", "vgg"])
    assert gpu_worst <= cpu_worst

    benchmark(lambda: gpu_model("resnet50").breakdown("msmw"))
