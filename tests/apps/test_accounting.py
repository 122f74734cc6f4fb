"""Tests for the per-round accounting helpers and cross-checks between the
simulated transport and the analytic message-count model."""

from __future__ import annotations

import pytest

from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.session import RoundAccountant, Session, should_evaluate
from repro.network.topology import messages_per_round


def build_deployment(**overrides):
    defaults = dict(
        deployment="ssmw",
        num_workers=5,
        gradient_gar="multi-krum",
        model="logistic",
        dataset_size=150,
        batch_size=8,
        num_iterations=4,
        accuracy_every=2,
        seed=9,
    )
    defaults.update(overrides)
    return Controller(ClusterConfig(**defaults)).build()


class TestRoundAccountant:
    def test_builds_record_with_all_components(self):
        deployment = build_deployment()
        server = deployment.servers[0]
        accountant = RoundAccountant(deployment, server)
        accountant.begin()
        server.get_gradients(0, 5)
        accountant.add_aggregation(deployment.gradient_gar)
        record = accountant.end(0, accuracy=0.5)
        assert record.compute_time > 0
        assert record.communication_time > 0
        assert record.aggregation_time > 0
        assert record.accuracy == 0.5
        assert len(deployment.metrics) == 1

    def test_vanilla_rounds_have_no_serialization_overhead(self):
        garfield = build_deployment(seed=4)
        vanilla = build_deployment(deployment="vanilla", seed=4)
        for deployment in (garfield, vanilla):
            server = deployment.servers[0]
            accountant = RoundAccountant(deployment, server)
            accountant.begin()
            server.get_gradients(0, 5)
            accountant.end(0)
        assert (
            vanilla.metrics.records[0].communication_time
            < garfield.metrics.records[0].communication_time
        )

    def test_aggregation_defaults_to_model_dimension(self):
        deployment = build_deployment()
        accountant = RoundAccountant(deployment, deployment.servers[0])
        accountant.begin()
        accountant.add_aggregation(deployment.gradient_gar)
        explicit = RoundAccountant(deployment, deployment.servers[0])
        explicit.begin()
        explicit.add_aggregation(deployment.gradient_gar, dimension=deployment.servers[0].dimension)
        assert accountant._aggregation_time == pytest.approx(explicit._aggregation_time)


class TestHelpers:
    def test_should_evaluate_schedule(self):
        deployment = build_deployment(num_iterations=7, accuracy_every=3)
        measured = [i for i in range(7) if should_evaluate(deployment, i)]
        assert measured == [0, 3, 6]

    def test_should_evaluate_always_includes_last_iteration(self):
        deployment = build_deployment(num_iterations=8, accuracy_every=3)
        assert should_evaluate(deployment, 7)


class TestMessageAccountingCrossCheck:
    """The simulated transport's counters match the analytic O(n)/O(n^2) model."""

    def test_ssmw_messages_scale_linearly(self):
        per_round = {}
        for nw in (4, 8):
            deployment = build_deployment(num_workers=nw, num_iterations=3)
            Session(deployment).run()
            per_round[nw] = deployment.transport.stats.pulls_issued / 3
        assert per_round[8] == pytest.approx(2 * per_round[4])
        analytic = messages_per_round("ssmw", 8)
        assert per_round[8] == analytic["gradient_messages"]

    def test_decentralized_messages_scale_quadratically(self):
        per_round = {}
        for n in (4, 8):
            deployment = build_deployment(
                deployment="decentralized",
                num_workers=n,
                num_servers=0,
                num_byzantine_workers=1,
                gradient_gar="median",
                model_gar="median",
                num_iterations=2,
            )
            Session(deployment).run()
            per_round[n] = deployment.transport.stats.pulls_issued / 2
        # Quadratic growth: ~4x the pulls when the cluster doubles.
        assert per_round[8] / per_round[4] > 2.5
