"""Tests for per-round message accounting: each strategy's closed-form counts."""

from __future__ import annotations

import pytest

from repro.apps.throughput import messages_per_round
from repro.core.cluster import ClusterConfig
from repro.core.session import Session, available_applications
from repro.exceptions import ConfigurationError


class TestMessagesPerRound:
    def test_parameter_server_is_linear_in_workers(self):
        counts = messages_per_round("ssmw", num_workers=18)
        assert counts["model_messages"] == 18
        assert counts["gradient_messages"] == 18

    def test_crash_tolerant_replicates_gradient_collection(self):
        counts = messages_per_round("crash-tolerant", num_workers=18, num_servers=6)
        assert counts["gradient_messages"] == 18 * 6
        assert counts["model_messages"] == 18

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


# ---------------------------------------------------------------------- #
# The hand-written counts against one real round of the protocol
# ---------------------------------------------------------------------- #
ROUND_CONFIGS = {
    "vanilla": dict(num_workers=4, num_byzantine_workers=0, gradient_gar="average"),
    "aggregathor": dict(num_workers=5, num_byzantine_workers=1, gradient_gar="median"),
    "ssmw": dict(num_workers=5, num_byzantine_workers=1, gradient_gar="median"),
    "msmw": dict(num_workers=5, num_byzantine_workers=1, num_servers=3, gradient_gar="median"),
    "crash-tolerant": dict(num_workers=4, num_byzantine_workers=0, num_servers=3, gradient_gar="average"),
    "decentralized": dict(num_workers=5, num_byzantine_workers=1, gradient_gar="median"),
}

KNOWN_GAPS = {
    "crash-tolerant": "the formula ships the model to the primary only (4); "
    "every replica's gradient request ships it (12)",
    "decentralized": "the formula counts 20 gradient and 20 contract messages; an iid "
    "round sends 25 gradients (each node also pulls its own worker) and no contract",
}


def measured_messages_per_round(deployment: str, config) -> dict:
    """``messages_per_round``'s three counts, read off one round's transport ledger.

    A gradient request ships the model, so on a parameter server it is a model
    message too, and replicas exchange ``model`` replies.  A decentralized node
    exchanges ``model`` replies with its peers and, in the contract step,
    ``aggregated_gradient`` replies: the formula's model and server messages.
    """
    with Session(config=config) as session:
        session.step()
        kinds = session.deployment.transport.stats.per_kind_messages
    gradients, models = kinds.get("gradient", 0), kinds.get("model", 0)
    if deployment == "decentralized":
        return {
            "model_messages": models,
            "gradient_messages": gradients,
            "server_model_messages": kinds.get("aggregated_gradient", 0),
        }
    return {"model_messages": gradients, "gradient_messages": gradients, "server_model_messages": models}


@pytest.mark.parametrize(
    "deployment",
    [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=KNOWN_GAPS[name]))
        if name in KNOWN_GAPS
        else name
        for name in ROUND_CONFIGS
    ],
)
def test_messages_per_round_matches_one_real_round(deployment):
    """Fig. 9's counts are hand-written; a real round of each protocol is the referee."""
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
    expected = messages_per_round(deployment, config.num_workers, config.num_servers)
    assert measured_messages_per_round(deployment, config) == expected
