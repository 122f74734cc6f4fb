"""Unit tests of the individual application training loops.

Each test runs a few iterations with a tiny logistic model so it completes in
a fraction of a second; end-to-end convergence behaviour is covered by the
integration tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import available_applications
from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.session import Session
from repro.exceptions import ConfigurationError


def run(**overrides):
    defaults = dict(
        deployment="ssmw",
        num_workers=5,
        num_byzantine_workers=0,
        gradient_gar="multi-krum",
        model="logistic",
        dataset="mnist",
        dataset_size=150,
        batch_size=8,
        num_iterations=5,
        accuracy_every=2,
        learning_rate=0.1,
        seed=4,
    )
    defaults.update(overrides)
    controller = Controller(ClusterConfig(**defaults))
    return controller.run()


class TestDispatch:
    def test_every_deployment_has_an_application(self):
        assert set(available_applications()) == {
            "vanilla", "aggregathor", "crash-tolerant", "ssmw", "msmw", "decentralized",
        }

    def test_dispatch_is_backed_by_the_strategy_registry(self):
        from repro.core.session import APPLICATION_REGISTRY, RoundStrategy

        assert set(APPLICATION_REGISTRY) == set(available_applications())
        assert all(
            isinstance(cls, type) and issubclass(cls, RoundStrategy)
            for cls in APPLICATION_REGISTRY.values()
        )

    def test_unknown_deployment_rejected(self):
        deployment = Controller(ClusterConfig(model="logistic", dataset_size=100)).build()
        deployment.config.deployment = "unknown"
        with pytest.raises(ConfigurationError):
            Session(deployment).run()


class TestVanilla:
    def test_runs_and_records_each_iteration(self):
        result = run(deployment="vanilla")
        assert len(result.metrics) == 5
        assert result.final_accuracy is not None

    def test_no_serialization_overhead_recorded(self):
        """The vanilla deployment uses the optimized runtime (Section 6.2)."""
        vanilla = run(deployment="vanilla", seed=9)
        garfield = run(deployment="ssmw", seed=9)
        assert vanilla.breakdown["communication"] < garfield.breakdown["communication"]


class TestSSMW:
    def test_accuracy_reported_on_schedule(self):
        result = run(deployment="ssmw", num_iterations=6, accuracy_every=3)
        measured_iterations = [i for i, _ in result.accuracy_history]
        assert measured_iterations == [0, 3, 5]

    def test_tolerates_byzantine_workers(self):
        result = run(
            deployment="ssmw",
            num_workers=7,
            num_byzantine_workers=2,
            num_attacking_workers=2,
            worker_attack="reversed",
            num_iterations=10,
        )
        assert result.final_accuracy is not None
        assert np.isfinite(result.metrics.records[-1].total_time)

    def test_asynchronous_mode_waits_for_fewer_workers(self):
        result = run(deployment="ssmw", num_workers=7, num_byzantine_workers=1, asynchronous=True)
        assert len(result.metrics) == 5

    def test_throughput_positive(self):
        assert run().throughput > 0


class TestAggregathor:
    def test_runs_with_multikrum(self):
        result = run(deployment="aggregathor", num_workers=7, num_byzantine_workers=2)
        assert len(result.metrics) == 5

    def test_learning_rate_handicap_applied(self):
        config = ClusterConfig(
            deployment="aggregathor",
            num_workers=5,
            model="logistic",
            dataset_size=120,
            batch_size=8,
            num_iterations=2,
            learning_rate=0.1,
            seed=1,
        )
        controller = Controller(config)
        deployment = controller.build()
        Session(deployment).run()
        assert deployment.servers[0].optimizer.lr == pytest.approx(0.08)


class TestCrashTolerant:
    def test_all_replicas_track_each_other(self):
        config = ClusterConfig(
            deployment="crash-tolerant",
            num_servers=3,
            num_workers=4,
            model="logistic",
            dataset_size=150,
            batch_size=8,
            num_iterations=4,
            seed=2,
        )
        deployment = Controller(config).build()
        Session(deployment).run()
        states = [s.flat_parameters() for s in deployment.servers]
        assert np.allclose(states[0], states[1])
        assert np.allclose(states[0], states[2])

    def test_fails_over_when_primary_crashes(self):
        config = ClusterConfig(
            deployment="crash-tolerant",
            num_servers=3,
            num_workers=4,
            model="logistic",
            dataset_size=150,
            batch_size=8,
            num_iterations=6,
            seed=2,
        )
        deployment = Controller(config).build()
        deployment.transport.failures.crash("server-0")
        Session(deployment).run()
        assert len(deployment.metrics) == 6

    def test_all_replicas_crashed_raises(self):
        from repro.exceptions import TrainingError

        config = ClusterConfig(
            deployment="crash-tolerant",
            num_servers=2,
            num_workers=4,
            model="logistic",
            dataset_size=150,
            batch_size=8,
            num_iterations=3,
            seed=2,
        )
        deployment = Controller(config).build()
        deployment.transport.failures.crash("server-0")
        deployment.transport.failures.crash("server-1")
        with pytest.raises(TrainingError):
            Session(deployment).run()


class TestMSMW:
    def msmw_result(self, **overrides):
        defaults = dict(
            deployment="msmw",
            num_workers=7,
            num_byzantine_workers=1,
            num_attacking_workers=1,
            num_servers=4,
            num_byzantine_servers=1,
            num_attacking_servers=1,
            model_gar="median",
            num_iterations=6,
        )
        defaults.update(overrides)
        return run(**defaults)

    def test_runs_with_byzantine_servers_and_workers(self):
        result = self.msmw_result()
        assert len(result.metrics) == 6
        assert result.final_accuracy is not None

    def test_honest_replicas_stay_aligned(self):
        config = ClusterConfig(
            deployment="msmw",
            num_workers=7,
            num_byzantine_workers=1,
            num_servers=4,
            num_byzantine_servers=1,
            num_attacking_servers=1,
            model_gar="median",
            gradient_gar="multi-krum",
            model="logistic",
            dataset_size=150,
            batch_size=8,
            num_iterations=5,
            seed=6,
        )
        deployment = Controller(config).build()
        Session(deployment).run()
        states = [s.flat_parameters() for s in deployment.honest_servers]
        spread = max(np.linalg.norm(states[0] - s) for s in states[1:])
        assert spread < 1.0

    def test_alignment_probe_collects_samples(self):
        config = ClusterConfig(
            deployment="msmw",
            num_workers=7,
            num_byzantine_workers=1,
            num_servers=4,
            num_byzantine_servers=1,
            model_gar="median",
            model="logistic",
            dataset_size=150,
            batch_size=8,
            num_iterations=3,
            seed=6,
        )
        deployment = Controller(config).build()
        deployment.alignment.every = 1
        Session(deployment).run()
        assert len(deployment.alignment.samples) == 3
        assert all(0.0 <= s["cos_phi"] <= 1.0 for s in deployment.alignment.samples)

    def test_two_aggregations_per_iteration(self):
        result = self.msmw_result(num_iterations=3)
        assert all(r.aggregation_time > 0 for r in result.metrics.records)


class TestDecentralized:
    def decentralized_result(self, **overrides):
        defaults = dict(
            deployment="decentralized",
            num_workers=6,
            num_servers=0,
            num_byzantine_workers=1,
            num_attacking_workers=1,
            gradient_gar="median",
            model_gar="median",
            num_iterations=4,
        )
        defaults.update(overrides)
        return run(**defaults)

    def test_runs_peer_to_peer(self):
        result = self.decentralized_result()
        assert len(result.metrics) == 4
        assert result.final_accuracy is not None

    def test_non_iid_contract_step(self):
        result = self.decentralized_result(non_iid=True, contract_steps=2)
        assert len(result.metrics) == 4

    def test_quadratic_message_count_versus_ssmw(self):
        decentralized = self.decentralized_result(num_iterations=3)
        ssmw = run(deployment="ssmw", num_workers=6, num_iterations=3)
        assert decentralized.messages_sent > 2 * ssmw.messages_sent


class TestDeadWorkersLeaveEveryPull:
    """Every strategy pulls from the deployment's one membership: once the
    liveness layer declares a worker dead, no deployment contacts it or waits
    for it any more, and the health payload and the pull set agree."""

    CELLS = {
        # Asynchronous deployments survive a crash (reply slack f = 1) ...
        "msmw": dict(deployment="msmw", num_servers=3, asynchronous=True, fault="crash"),
        "msmw-sharded": dict(
            deployment="msmw", num_servers=3, shards=3, asynchronous=True, fault="crash"
        ),
        "decentralized": dict(deployment="decentralized", fault="crash"),
        # ... the synchronous baselines by design do not, so their worker
        # turns into a 500x straggler instead.
        "vanilla": dict(deployment="vanilla", fault="straggle"),
        "crash-tolerant": dict(deployment="crash-tolerant", num_servers=2, fault="straggle"),
    }

    @pytest.mark.resilience
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_dead_worker_is_neither_pulled_nor_awaited(self, cell, monkeypatch):
        from repro.network.transport import Transport

        options = dict(self.CELLS[cell])
        fault = options.pop("fault")
        config = ClusterConfig(
            num_workers=8,
            num_byzantine_workers=1,
            gradient_gar="median",
            model="logistic",
            dataset="mnist",
            dataset_size=160,
            batch_size=8,
            num_iterations=10,
            accuracy_every=10,
            seed=4,
            resilience={"hedge": True},
            **options,
        )
        victim = "worker-3"
        pulled_now, pulled, results = set(), [], []
        pull_many = Transport.pull_many

        def recording(transport, source, destinations, kind, *args, **kwargs):
            if kind == "gradient":
                pulled_now.update(destinations)
            return pull_many(transport, source, destinations, kind, *args, **kwargs)

        monkeypatch.setattr(Transport, "pull_many", recording)

        def inject(session, iteration, events):
            failures = session.deployment.transport.failures
            if iteration == 1 and fault == "crash":
                failures.crash(victim)
            elif iteration == 1:
                failures.set_straggler(victim, 500.0)

        def observe(result):
            results.append(result)
            pulled.append(set(pulled_now))
            pulled_now.clear()

        with Session(config=config) as session:
            session.on_round_start(inject).on_round(observe)
            session.run()
            roster = {worker.node_id for worker in session.deployment.workers}

        dead = set()  # as the previous round's payload left it (sticky)
        declared = None
        for result, destinations in zip(results, pulled):
            assert destinations == roster - dead
            assert result.quorum == results[0].quorum - len(dead)
            if result.health is not None:
                dead = set(result.health["dead"])
                if declared is None and dead:
                    declared = result.iteration
        assert dead == {victim}
        assert declared is not None and declared < results[-1].iteration
