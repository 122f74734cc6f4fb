"""Figure 8 — throughput (batches/s) with an increasing number of workers.

Figure 8a uses the CPU cluster with CifarNet (TensorFlow systems, including
AggregaThor); Figure 8b uses the GPU cluster with ResNet-50 (PyTorch systems).
The paper's findings: every system scales with more workers except
decentralized learning, SSMW outperforms AggregaThor, and the
vanilla-vs-fault-tolerant gap stays roughly a constant factor.
"""

from __future__ import annotations

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig

CPU_SWEEP = [3, 6, 9, 12, 15, 18]
GPU_SWEEP = [5, 7, 9, 11, 13]
CPU_DEPLOYMENTS = ["vanilla", "aggregathor", "crash-tolerant", "ssmw", "msmw", "decentralized"]
GPU_DEPLOYMENTS = ["vanilla", "crash-tolerant", "ssmw", "msmw", "decentralized"]


def build(model, device, num_workers):
    testbed = {
        **PAPER_TESTBEDS[device],
        "num_workers": num_workers,
        "num_byzantine_workers": min(3, max(0, (num_workers - 3) // 4)),
    }
    return ThroughputModel(ClusterConfig(**testbed), model=model)


def sweep(model, device, sweep_values, deployments):
    table = {}
    for nw in sweep_values:
        tm = build(model, device, nw)
        table[nw] = {d: tm.throughput_batches_per_s(d) for d in deployments}
    return table


def print_sweep(title, table, deployments, printer):
    rows = [[nw] + [table[nw][d] for d in deployments] for nw in table]
    printer(title, ["n_w"] + deployments, rows)


def test_fig8a_cpu_worker_scaling(benchmark, table_printer):
    """Figure 8a: throughput vs n_w, CPU / CifarNet / TensorFlow systems."""
    table = sweep("cifarnet", "cpu", CPU_SWEEP, CPU_DEPLOYMENTS)
    print_sweep("Figure 8a — throughput (batches/s) vs n_w (CPU, CifarNet)", table, CPU_DEPLOYMENTS, table_printer)

    first, last = CPU_SWEEP[0], CPU_SWEEP[-1]
    # Parameter-server systems scale with more workers.
    ps_growth = {}
    for deployment in ["vanilla", "ssmw", "msmw", "crash-tolerant", "aggregathor"]:
        ps_growth[deployment] = table[last][deployment] / table[first][deployment]
        assert ps_growth[deployment] > 1.5
    # Decentralized learning does not scale: its throughput stays roughly flat
    # while every parameter-server system at least doubles.
    decentralized_growth = table[last]["decentralized"] / table[first]["decentralized"]
    assert decentralized_growth < 1.6
    assert decentralized_growth < 0.5 * min(ps_growth.values())
    # SSMW outperforms AggregaThor at every cluster size.
    for nw in CPU_SWEEP:
        assert table[nw]["ssmw"] > table[nw]["aggregathor"]
    # Vanilla stays the fastest.
    for nw in CPU_SWEEP:
        assert table[nw]["vanilla"] == max(table[nw].values())

    benchmark(lambda: build("cifarnet", "cpu", 18).throughput_batches_per_s("ssmw"))


def test_fig8b_gpu_worker_scaling(benchmark, table_printer):
    """Figure 8b: throughput vs n_w, GPU / ResNet-50 / PyTorch systems."""
    table = sweep("resnet50", "gpu", GPU_SWEEP, GPU_DEPLOYMENTS)
    print_sweep("Figure 8b — throughput (batches/s) vs n_w (GPU, ResNet-50)", table, GPU_DEPLOYMENTS, table_printer)

    first, last = GPU_SWEEP[0], GPU_SWEEP[-1]
    for deployment in ["vanilla", "ssmw", "msmw", "crash-tolerant"]:
        assert table[last][deployment] > table[first][deployment]
    assert table[last]["decentralized"] < 1.5 * table[first]["decentralized"]

    # MSMW scales almost as well as the crash-tolerant deployment: the ratio of
    # their throughputs stays roughly constant across the sweep.
    ratios = [table[nw]["msmw"] / table[nw]["crash-tolerant"] for nw in GPU_SWEEP]
    assert max(ratios) - min(ratios) < 0.3

    # The GPU cluster is roughly an order of magnitude faster than the CPU one
    # for the same deployment and model family (Figure 8a vs 8b in the paper).
    cpu = build("cifarnet", "cpu", 13).throughput_batches_per_s("ssmw")
    gpu = build("cifarnet", "gpu", 13).throughput_batches_per_s("ssmw")
    assert gpu > 2.0 * cpu

    benchmark(lambda: build("resnet50", "gpu", 13).throughput_batches_per_s("msmw"))
