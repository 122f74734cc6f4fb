"""Figure 9 — why decentralized learning does not scale.

Figure 9a plots the per-iteration communication time of decentralized learning
and of the vanilla baseline against the number of nodes ``n`` (with d = 1e6);
Figure 9b plots it against the model dimension ``d`` (with n = 6).  The root
cause the paper identifies is message complexity: O(n^2) messages per round
for decentralized learning versus O(n) for the parameter-server architecture.
"""

from __future__ import annotations

from repro.apps.throughput import ThroughputModel, messages_per_round
from repro.core.cluster import ClusterConfig

N_SWEEP = [2, 3, 4, 5, 6]
D_SWEEP = [10_000, 100_000, 1_000_000, 10_000_000, 100_000_000]


def build(num_workers: int, dimension: int) -> ThroughputModel:
    config = ClusterConfig(
        deployment="vanilla", device="gpu", framework="pytorch", num_workers=num_workers, batch_size=32,
        gradient_gar="median", model_gar="median",
    )
    return ThroughputModel(config, model="resnet50", dimension=dimension)


def test_fig9a_communication_vs_nodes(benchmark, table_printer):
    """Figure 9a: communication time and message count vs number of nodes (d = 1e6)."""
    rows = []
    data = {}
    for n in N_SWEEP:
        tm = build(n, 1_000_000)
        vanilla = tm.communication_time("vanilla")
        decentralized = tm.communication_time("decentralized")
        vanilla_msgs = sum(messages_per_round("vanilla", n).values())
        decentralized_msgs = sum(messages_per_round("decentralized", n).values())
        data[n] = (vanilla, decentralized, vanilla_msgs, decentralized_msgs)
        rows.append((n, vanilla, decentralized, vanilla_msgs, decentralized_msgs))
    table_printer(
        "Figure 9a — communication time (s) and messages/round vs n (d=1e6, GPU)",
        ["n", "vanilla time", "decentralized time", "vanilla msgs", "decentralized msgs"],
        rows,
    )

    # Decentralized communication is always the more expensive of the two and
    # the gap widens with n.
    gaps = [data[n][1] / data[n][0] for n in N_SWEEP]
    assert all(g >= 1.0 for g in gaps)
    assert gaps[-1] > gaps[0]
    # Message complexity: O(n) for the PS architecture vs O(n^2) peer to peer.
    assert data[6][2] == 12
    assert data[6][3] == 3 * 6 * 5

    benchmark(lambda: build(6, 1_000_000).communication_time("decentralized"))


def test_fig9b_communication_vs_dimension(benchmark, table_printer):
    """Figure 9b: communication time vs model dimension (n = 6)."""
    rows = []
    data = {}
    for d in D_SWEEP:
        tm = build(6, d)
        vanilla = tm.communication_time("vanilla")
        decentralized = tm.communication_time("decentralized")
        data[d] = (vanilla, decentralized)
        rows.append((d, vanilla, decentralized))
    table_printer(
        "Figure 9b — communication time (s) vs d (n=6, GPU)",
        ["d", "vanilla", "decentralized"],
        rows,
    )

    # Both grow roughly linearly with d once the payload dominates the latency
    # floor, and decentralized stays above vanilla at every dimension.
    for d in D_SWEEP:
        assert data[d][1] > data[d][0]
    vanilla_growth = data[100_000_000][0] / data[1_000_000][0]
    decentralized_growth = data[100_000_000][1] / data[1_000_000][1]
    assert 30 < vanilla_growth < 130
    assert 30 < decentralized_growth < 130

    benchmark(lambda: build(6, 10_000_000).communication_time("decentralized"))
