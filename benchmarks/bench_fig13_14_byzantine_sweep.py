"""Figures 13 and 14 (appendix) — Garfield throughput vs f_w and f_ps on CPU and GPU.

Figure 13 fixes the number of workers and sweeps the number of declared
Byzantine workers: throughput decreases only slightly (more replies must be
awaited, i.e. a larger quorum in the asynchronous variant).  Figure 14 sweeps
the number of declared Byzantine servers, which forces more server replicas
and hence more communication links: throughput drops, but by less than ~45%.

Every GPU row is refused: asynchronous on the GPU testbed's 10 workers and 3
replicas, msmw waits for ``n_ps - f_ps - 1 = 1`` peer model (Median needs 3
rows at f_ps = 1) and, at f_w = 3, for ``n_w - f_w = 7`` gradients (Multi-Krum
needs 9).  The paper's CPU-vs-GPU comparisons are asserted as refusals.
"""

from __future__ import annotations

from conftest import priced

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig

DEVICES = ["cpu", "gpu"]
GRADIENTS_REFUSED = "refused: GAR 'multi-krum' needs at least 9 gradients to tolerate f=3, but the deployment only collects 7"
MODELS_REFUSED = "refused: GAR 'median' needs at least 3 models to tolerate f=1, but the deployment only collects 2"


def build(device, num_byzantine_workers, num_servers, num_byzantine_servers):
    config = ClusterConfig(**{
        **PAPER_TESTBEDS[device], "num_byzantine_workers": num_byzantine_workers, "num_servers": num_servers,
        "num_byzantine_servers": num_byzantine_servers, "asynchronous": True,
    })
    return ThroughputModel(config, model="resnet50")


def updates_per_s(*cluster):
    return priced(lambda: 1.0 / build(*cluster).breakdown("msmw").total)


def test_fig13_byzantine_workers_sweep(benchmark, table_printer):
    """Figure 13: Garfield throughput vs f_w on the CPU and GPU clusters."""
    rows = []
    series = {}
    for device in DEVICES:
        for f in [0, 1, 2, 3]:
            updates = updates_per_s(device, f, PAPER_TESTBEDS[device]["num_servers"], 1)
            series[(device, f)] = updates
            rows.append((device, f, updates))
    table_printer("Figures 13a/13b — Garfield throughput (updates/s) vs f_w", ["device", "f_w", "updates/s"], rows)

    values = [series[("cpu", f)] for f in [0, 1, 2, 3]]
    # Throughput barely moves with more declared Byzantine workers: the
    # communication cost is fixed by n_w, only the quorum/aggregation
    # sizes change slightly.
    assert (max(values) - min(values)) / max(values) < 0.15
    # The GPU series, and with it the GPU-over-CPU comparison, is refused.
    assert [series[("gpu", f)] for f in [0, 1, 2, 3]] == [MODELS_REFUSED] * 3 + [GRADIENTS_REFUSED]

    benchmark(lambda: build("cpu", 3, 6, 1).breakdown("msmw"))


def test_fig14_byzantine_servers_sweep(benchmark, table_printer):
    """Figure 14: Garfield throughput vs f_ps on the CPU and GPU clusters."""
    rows = []
    series = {}
    for device in DEVICES:
        for f in [0, 1, 2, 3]:
            nps = max(2, 3 * f + 1)
            updates = updates_per_s(device, 3, nps, f)
            series[(device, f)] = updates
            rows.append((device, f, nps, updates))
    table_printer(
        "Figures 14a/14b — Garfield throughput (updates/s) vs f_ps",
        ["device", "f_ps", "n_ps", "updates/s"],
        rows,
    )

    values = [series[("cpu", f)] for f in [0, 1, 2, 3]]
    assert all(values[i] >= values[i + 1] for i in range(3))
    assert (values[0] - values[-1]) / values[0] < 0.6
    # The GPU series, and with it the CPU-vs-GPU degradation ratio, is
    # refused: f_w = 3 leaves 7 gradients for Multi-Krum.
    assert [series[("gpu", f)] for f in [0, 1, 2, 3]] == [GRADIENTS_REFUSED] * 4

    benchmark(lambda: build("cpu", 3, 10, 3).breakdown("msmw"))
