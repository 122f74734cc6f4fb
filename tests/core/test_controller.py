"""Tests for the Controller (deployment construction and orchestration)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregators import Average, Bulyan, Median, MultiKrum
from repro.core.byzantine import ByzantineServer, ByzantineWorker
from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.exceptions import ConfigurationError


def fast_config(**overrides):
    defaults = dict(
        deployment="ssmw",
        num_workers=5,
        num_byzantine_workers=1,
        num_attacking_workers=1,
        gradient_gar="multi-krum",
        model="logistic",
        dataset="mnist",
        dataset_size=150,
        batch_size=8,
        num_iterations=4,
        accuracy_every=2,
        seed=3,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestBuild:
    def test_builds_requested_numbers_of_nodes(self):
        deployment = Controller(fast_config()).build()
        assert len(deployment.workers) == 5
        assert len(deployment.servers) == 1

    def test_byzantine_workers_are_the_last_indices(self):
        deployment = Controller(fast_config(num_attacking_workers=1)).build()
        assert isinstance(deployment.workers[-1], ByzantineWorker)
        assert not isinstance(deployment.workers[0], ByzantineWorker)

    def test_honest_worker_and_server_properties(self):
        deployment = Controller(
            fast_config(
                deployment="msmw",
                num_servers=4,
                num_byzantine_servers=1,
                num_attacking_servers=1,
                model_gar="median",
            )
        ).build()
        assert len(deployment.honest_servers) == 3
        assert len(deployment.honest_workers) == 4
        assert isinstance(deployment.servers[-1], ByzantineServer)

    def test_primary_is_first_honest_server(self):
        deployment = Controller(fast_config()).build()
        assert deployment.primary is deployment.servers[0]

    def test_vanilla_uses_average_gar(self):
        deployment = Controller(fast_config(deployment="vanilla", num_byzantine_workers=0, num_attacking_workers=0)).build()
        assert isinstance(deployment.gradient_gar, Average)

    def test_ssmw_uses_configured_gar(self):
        deployment = Controller(fast_config()).build()
        assert isinstance(deployment.gradient_gar, MultiKrum)

    def test_msmw_builds_model_gar(self):
        deployment = Controller(
            fast_config(
                deployment="msmw",
                num_servers=4,
                num_byzantine_servers=1,
                model_gar="median",
            )
        ).build()
        assert isinstance(deployment.model_gar, Median)

    def test_ssmw_has_no_model_gar(self):
        assert Controller(fast_config()).build().model_gar is None
        # Crash-tolerant replicas never exchange models: no model GAR either.
        crash_tolerant = fast_config(
            deployment="crash-tolerant",
            num_servers=2,
            num_byzantine_workers=0,
            num_attacking_workers=0,
        )
        assert Controller(crash_tolerant).build().model_gar is None

    def test_decentralized_builds_one_server_per_worker(self):
        deployment = Controller(
            fast_config(deployment="decentralized", num_workers=6, num_servers=0, gradient_gar="median")
        ).build()
        assert len(deployment.servers) == 6
        assert len(deployment.workers) == 6

    def test_server_replicas_start_identical(self):
        deployment = Controller(
            fast_config(deployment="crash-tolerant", num_servers=3, num_byzantine_workers=0, num_attacking_workers=0)
        ).build()
        states = [s.flat_parameters() for s in deployment.servers]
        assert np.allclose(states[0], states[1])
        assert np.allclose(states[0], states[2])

    def test_worker_shards_are_disjoint_subsets(self):
        deployment = Controller(fast_config()).build()
        total = sum(len(w.loader.dataset) for w in deployment.workers)
        # 150 examples, 20% test split -> 120 training examples across workers.
        assert total == 120

    def test_straggler_factors_applied(self):
        deployment = Controller(fast_config(straggler_factors={"worker-0": 5.0})).build()
        assert deployment.transport.failures.latency_factor("worker-0") == 5.0

    def test_bulyan_setup(self):
        deployment = Controller(
            fast_config(num_workers=11, num_byzantine_workers=2, num_attacking_workers=0, gradient_gar="bulyan")
        ).build()
        assert isinstance(deployment.gradient_gar, Bulyan)


class TestRun:
    def test_run_produces_result_with_metrics(self):
        result = Controller(fast_config()).run()
        assert len(result.metrics) == 4
        assert result.final_accuracy is not None
        assert result.throughput > 0
        assert result.messages_sent > 0

    def test_run_summary_mentions_deployment(self):
        result = Controller(fast_config()).run()
        assert "ssmw" in result.summary()

    def test_primary_raises_when_all_servers_byzantine(self):
        deployment = Controller(
            fast_config(
                deployment="msmw",
                num_servers=4,
                num_byzantine_servers=1,
                num_attacking_servers=1,
                model_gar="median",
            )
        ).build()
        # Keep only the Byzantine replica to exercise the guard.
        deployment.servers = [s for s in deployment.servers if isinstance(s, ByzantineServer)]
        with pytest.raises(ConfigurationError):
            _ = deployment.primary
