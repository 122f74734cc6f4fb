"""Tests for per-round message accounting: the counts of each strategy's replayed round."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.throughput import messages_per_round, replay_round, round_traffic
from repro.core.cluster import ClusterConfig
from repro.core.session import available_applications
from repro.exceptions import ConfigurationError
from repro.network.transport import Transport


class TestMessagesPerRound:
    def test_parameter_server_is_linear_in_workers(self):
        counts = messages_per_round("ssmw", num_workers=18)
        assert counts["model_messages"] == 18
        assert counts["gradient_messages"] == 18

    def test_crash_tolerant_replicates_gradient_collection(self):
        counts = messages_per_round("crash-tolerant", num_workers=18, num_servers=6)
        assert counts["gradient_messages"] == 18 * 6
        # Every replica's gradient request ships its model, not the primary's alone.
        assert counts["model_messages"] == 18 * 6

    def test_msmw_adds_server_exchange(self):
        counts = messages_per_round("msmw", num_workers=18, num_servers=6)
        assert counts["server_model_messages"] == 30
        assert counts["model_messages"] == 108

    def test_decentralized_is_quadratic(self):
        small = messages_per_round("decentralized", num_workers=6)
        large = messages_per_round("decentralized", num_workers=12)
        total_small = sum(small.values())
        total_large = sum(large.values())
        assert total_large / total_small == pytest.approx((12 * 11) / (6 * 5))

    def test_vanilla_versus_decentralized_scaling_claim(self):
        """The O(n) vs O(n^2) claim behind Figure 9."""
        for n in [4, 8, 16]:
            vanilla = sum(messages_per_round("vanilla", num_workers=n).values())
            decentralized = sum(messages_per_round("decentralized", num_workers=n).values())
            assert vanilla == 2 * n
            assert decentralized == 3 * n * (n - 1)

    def test_all_deployments_supported(self):
        for deployment in available_applications():
            counts = messages_per_round(deployment, num_workers=5, num_servers=3)
            assert all(value >= 0 for value in counts.values())

    def test_unknown_deployment(self):
        with pytest.raises(ConfigurationError):
            messages_per_round("gossip", num_workers=5)

    def test_single_server_star(self):
        counts = messages_per_round("ssmw", num_workers=4)
        # One model and one gradient message per worker<->server pair.
        assert counts == {"model_messages": 4, "gradient_messages": 4, "server_model_messages": 0}

    def test_vanilla_forces_single_server(self):
        for deployment in ("vanilla", "aggregathor", "ssmw"):
            many = messages_per_round(deployment, num_workers=3, num_servers=5)
            assert many == messages_per_round(deployment, num_workers=3, num_servers=1)

    def test_msmw_adds_server_to_server_links(self):
        counts = messages_per_round("msmw", num_workers=4, num_servers=3)
        assert sum(counts.values()) == 4 * 3 * 2 + 3 * 2

    def test_decentralized_is_complete_graph(self):
        counts = messages_per_round("decentralized", num_workers=5)
        assert set(counts.values()) == {5 * 4}

    def test_requires_workers(self):
        with pytest.raises(ConfigurationError):
            messages_per_round("ssmw", num_workers=0)

    def test_replicated_requires_servers(self):
        for deployment in ("crash-tolerant", "msmw"):
            with pytest.raises(ConfigurationError):
                messages_per_round(deployment, num_workers=3, num_servers=0)


class TestLedgerQuorums:
    """The ledger's record of one round's closed quorums."""

    def test_no_quorum_is_kept_unless_asked(self):
        transport = Transport()
        for node in ("server-0", "worker-0"):
            transport.register_node(node, object())
        transport.register_handler("worker-0", "gradient", lambda context: np.ones(4))
        transport.pull_many("server-0", ["worker-0"], "gradient", quorum=1)
        transport.ledger.open_round()
        assert transport.ledger.quorums is None
        transport.close()

    def test_each_closed_pull_is_kept_in_order_until_the_round_ends(self):
        transport = Transport(seed=4)
        for node in ("server-0", "worker-0", "worker-1", "worker-2"):
            transport.register_node(node, object())
        for worker in ("worker-0", "worker-1", "worker-2"):
            for kind in ("gradient", "model"):
                transport.register_handler(worker, kind, lambda context: np.ones(10))
        transport.failures.set_straggler("worker-2", 3.0)
        transport.ledger.quorums = []
        workers = ["worker-0", "worker-1", "worker-2"]
        replies, _ = transport.pull_many("server-0", workers, "gradient", quorum=3, payload=np.zeros(10))
        transport.pull_many("server-0", workers[:2], "model", quorum=1)
        first, second = transport.ledger.quorums
        nbytes = transport.vector_nbytes(10)
        assert (first.requester, first.kind, first.requests, first.shipped_nbytes) == ("server-0", "gradient", 3, nbytes)
        factors = {"worker-0": 1.0, "worker-1": 1.0, "worker-2": 3.0}
        # Each arrival is kept without its transfer, which a re-pricing adds back.
        transfer = nbytes / transport.price.bandwidth
        assert [(ready + factor * transfer, factor, size) for ready, factor, size in first.replies] == [
            (pytest.approx(reply.latency, rel=1e-12), factors[reply.source], nbytes) for reply in replies
        ]
        assert (second.kind, second.requests, second.shipped_nbytes, len(second.replies)) == ("model", 0, 0, 1)
        transport.ledger.open_round()
        assert transport.ledger.quorums == []
        transport.close()


# ---------------------------------------------------------------------- #
# The replayed counts against one real round of the protocol
# ---------------------------------------------------------------------- #
ROUND_CONFIGS = {
    "vanilla": dict(num_workers=4, num_byzantine_workers=0, gradient_gar="average"),
    "aggregathor": dict(num_workers=5, num_byzantine_workers=1, gradient_gar="median"),
    "ssmw": dict(num_workers=5, num_byzantine_workers=1, gradient_gar="median"),
    "msmw": dict(num_workers=5, num_byzantine_workers=1, num_servers=3, gradient_gar="median"),
    "crash-tolerant": dict(num_workers=4, num_byzantine_workers=0, num_servers=3, gradient_gar="average"),
    # Its quorums wait for n_w - f_w of the peers they ask, so only at f_w = 0
    # does a real round price every reply the replay does.
    "decentralized": dict(num_workers=5, num_byzantine_workers=0, gradient_gar="median"),
}


@pytest.mark.parametrize("deployment", sorted(ROUND_CONFIGS))
def test_messages_per_round_matches_one_real_round(deployment):
    """The priced round is replayed at f = 0 under plain averaging; a real round
    under another rule (at f_w = 1 where its quorums still wait for every peer
    they ask) prices the same messages."""
    overrides = ROUND_CONFIGS[deployment]
    config = ClusterConfig(
        deployment=deployment,
        model="logistic",
        dataset="mnist",
        dataset_size=120,
        batch_size=8,
        num_iterations=1,
        seed=3,
        **overrides,
    )
    replayed = round_traffic(deployment, config.num_workers, config.num_servers)
    assert replay_round(config).messages == replayed.messages
