"""Figure 10 — throughput with an increasing number of Byzantine workers / servers.

Figure 10a fixes n_w and increases the number of declared Byzantine workers
f_w: the communication cost is unchanged, so throughput stays almost flat.
Figure 10b increases the number of declared Byzantine servers f_ps, which
forces more server replicas (n_ps >= 3 f_ps + 1) and therefore more
communication links, reducing throughput — but by less than 50%.
Both frameworks (TensorFlow and PyTorch substitutes) are evaluated on CPUs.
"""

from __future__ import annotations

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig

FRAMEWORKS = ["tensorflow", "pytorch"]
F_SWEEP = [0, 1, 2, 3]


def build(framework: str, num_byzantine_workers: int, num_servers: int, num_byzantine_servers: int) -> ThroughputModel:
    config = ClusterConfig(**{
        **PAPER_TESTBEDS["cpu"], "framework": framework, "num_byzantine_workers": num_byzantine_workers,
        "num_servers": num_servers, "num_byzantine_servers": num_byzantine_servers,
    })
    return ThroughputModel(config, model="resnet50")


def test_fig10a_byzantine_workers(benchmark, table_printer):
    """Figure 10a: throughput (updates/s) vs f_w, fixed n_w, both frameworks."""
    rows = []
    series = {fw: {} for fw in FRAMEWORKS}
    for f in F_SWEEP:
        row = [f]
        for framework in FRAMEWORKS:
            updates = 1.0 / build(framework, f, 6, 1).breakdown("msmw").total
            series[framework][f] = updates
            row.append(updates)
        rows.append(row)
    table_printer("Figure 10a — throughput (updates/s) vs f_w (CPU)", ["f_w"] + FRAMEWORKS, rows)

    for framework in FRAMEWORKS:
        values = [series[framework][f] for f in F_SWEEP]
        # Fixing n_w fixes the communication cost, so throughput barely moves.
        assert max(values) / min(values) < 1.1
    # PyTorch shows a slight superiority over TensorFlow (no context switches).
    for f in F_SWEEP:
        assert series["pytorch"][f] >= series["tensorflow"][f]

    benchmark(lambda: build("tensorflow", 3, 6, 1).breakdown("msmw"))


def test_fig10b_byzantine_servers(benchmark, table_printer):
    """Figure 10b: throughput (updates/s) vs f_ps; n_ps grows as 3 f_ps + 1."""
    rows = []
    series = {fw: {} for fw in FRAMEWORKS}
    for f in F_SWEEP:
        num_servers = max(2, 3 * f + 1)
        row = [f, num_servers]
        for framework in FRAMEWORKS:
            updates = 1.0 / build(framework, 3, num_servers, f).breakdown("msmw").total
            series[framework][f] = updates
            row.append(updates)
        rows.append(row)
    table_printer(
        "Figure 10b — throughput (updates/s) vs f_ps (CPU)", ["f_ps", "n_ps"] + FRAMEWORKS, rows
    )

    for framework in FRAMEWORKS:
        values = [series[framework][f] for f in F_SWEEP]
        # Throughput decreases monotonically with more Byzantine servers...
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))
        # ...but the total drop stays below ~50% (consistent with SMR literature).
        assert (values[0] - values[-1]) / values[0] < 0.55

    # Tolerating one Byzantine server costs roughly a third of the throughput
    # (the paper reports a 33% overhead for f_ps = 1).
    tf = series["tensorflow"]
    assert 0.05 < (tf[0] - tf[1]) / tf[0] < 0.45

    benchmark(lambda: build("tensorflow", 3, 10, 3).breakdown("msmw"))
