"""Integration tests for failure injection in full deployments.

These exercise the failure models of :mod:`repro.network.failures` through the
whole stack: stragglers, crashed workers, lossy links and asynchronous quorums.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.session import Session
from repro.exceptions import TimeoutError


def build(**overrides):
    defaults = dict(
        deployment="ssmw",
        num_workers=6,
        num_byzantine_workers=1,
        gradient_gar="multi-krum",
        model="logistic",
        dataset_size=200,
        batch_size=8,
        num_iterations=6,
        accuracy_every=3,
        learning_rate=0.2,
        seed=15,
    )
    defaults.update(overrides)
    return Controller(ClusterConfig(**defaults)).build()


class TestStragglers:
    def test_straggler_worker_excluded_from_async_quorum(self):
        deployment = build(asynchronous=True, straggler_factors={"worker-0": 1000.0})
        server = deployment.servers[0]
        quorum = deployment.config.gradient_quorum()
        for iteration in range(3):
            gradients = server.get_gradient_matrix(iteration, quorum)
            assert len(gradients) == quorum
        # The straggler still computed gradients (it was asked) but its replies
        # never made the quorum, so training time is unaffected.
        assert deployment.workers[0].gradients_computed > 0

    def test_straggler_slows_synchronous_round(self):
        fast = build(seed=16)
        slow = build(seed=16, straggler_factors={"worker-1": 50.0})
        for deployment in (fast, slow):
            Session(deployment).run()
        assert slow.metrics.total_time > fast.metrics.total_time


class TestCrashedWorkers:
    def test_async_deployment_survives_a_crashed_worker(self):
        deployment = build(asynchronous=True)
        deployment.transport.failures.crash("worker-2")
        Session(deployment).run()
        assert len(deployment.metrics) == 6
        assert deployment.metrics.final_accuracy is not None

    def test_synchronous_deployment_times_out_when_a_worker_crashes(self):
        deployment = build(asynchronous=False)
        deployment.transport.failures.crash("worker-2")
        with pytest.raises(TimeoutError):
            Session(deployment).run()

    def test_crashed_worker_counts_against_liveness_margin(self):
        # Asynchronous quorum is n_w - f_w = 5; with two crashes only 4 workers
        # remain, so the deployment loses liveness — the q + f provisioning rule.
        deployment = build(asynchronous=True)
        deployment.transport.failures.crash("worker-2")
        deployment.transport.failures.crash("worker-3")
        with pytest.raises(TimeoutError):
            Session(deployment).run()


class TestLossyNetwork:
    def test_occasional_drops_are_absorbed_by_async_quorum(self):
        deployment = build(asynchronous=True)
        deployment.transport.failures.drop_probability = 0.05
        Session(deployment).run()
        assert len(deployment.metrics) == 6

    def test_heavy_loss_breaks_liveness(self):
        deployment = build(asynchronous=True)
        deployment.transport.failures.drop_probability = 0.9
        with pytest.raises(TimeoutError):
            Session(deployment).run()


class TestCombinedFaults:
    def test_msmw_with_byzantine_nodes_and_straggler(self):
        deployment = build(
            deployment="msmw",
            num_workers=7,
            num_byzantine_workers=1,
            num_attacking_workers=1,
            worker_attack="random",
            num_servers=4,
            num_byzantine_servers=1,
            num_attacking_servers=1,
            server_attack="random",
            model_gar="median",
            straggler_factors={"worker-3": 20.0},
        )
        Session(deployment).run()
        assert deployment.metrics.final_accuracy is not None
        states = [s.flat_parameters() for s in deployment.honest_servers]
        spread = max(np.linalg.norm(states[0] - s) for s in states[1:])
        assert np.isfinite(spread)
