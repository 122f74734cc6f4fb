"""Tests for checkpointing, configuration serialization and result export."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.server import Server
from repro.datasets.synthetic import make_classification
from repro.exceptions import ConfigurationError
from repro.network.transport import Transport
from repro.nn.models import LogisticRegression


def small_config(**overrides):
    defaults = dict(
        deployment="ssmw",
        num_workers=4,
        model="logistic",
        dataset_size=150,
        batch_size=8,
        num_iterations=4,
        accuracy_every=2,
        seed=5,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestCheckpointing:
    def build_server(self):
        transport = Transport(seed=0)
        dataset = make_classification(60, (1, 4, 4), num_classes=4, seed=1)
        return Server("s0", transport, LogisticRegression(16, 4, seed=0), test_dataset=dataset)

    def test_roundtrip(self, tmp_path):
        server = self.build_server()
        server.update_model(np.ones(server.dimension))
        path = tmp_path / "checkpoint.npz"
        server.save_checkpoint(path)

        restored = self.build_server()
        iterations = restored.load_checkpoint(path)
        assert iterations == 1
        assert np.allclose(restored.flat_parameters(), server.flat_parameters())

    def test_checkpoint_preserves_iteration_counter(self, tmp_path):
        server = self.build_server()
        for _ in range(3):
            server.update_model(np.zeros(server.dimension) + 0.01)
        path = tmp_path / "ckpt.npz"
        server.save_checkpoint(path)
        other = self.build_server()
        assert other.load_checkpoint(path) == 3
        assert other.iterations_run == 3

    def test_loading_wrong_dimension_fails(self, tmp_path):
        server = self.build_server()
        path = tmp_path / "bad.npz"
        np.savez(path, parameters=np.zeros(3), iterations_run=np.asarray(1))
        with pytest.raises(ConfigurationError):
            server.load_checkpoint(path)


class TestConfigSerialization:
    def test_dict_roundtrip(self):
        config = small_config(num_byzantine_workers=1, gradient_gar="median")
        restored = ClusterConfig.from_dict(config.to_dict())
        assert restored == config

    def test_json_roundtrip(self):
        config = small_config(deployment="msmw", num_servers=3, num_byzantine_servers=1, model_gar="median", num_workers=7)
        restored = ClusterConfig.from_json(config.to_json())
        assert restored == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig.from_dict({"deployment": "ssmw", "replication_factor": 3})

    def test_from_dict_validates(self):
        data = small_config().to_dict()
        data["num_byzantine_workers"] = 99
        with pytest.raises(ConfigurationError):
            ClusterConfig.from_dict(data)

    def test_json_is_valid_json(self):
        parsed = json.loads(small_config().to_json())
        assert parsed["deployment"] == "ssmw"


class TestResultExport:
    def test_to_dict_structure(self):
        result = Controller(small_config()).run()
        data = result.to_dict()
        assert data["iterations"] == 4
        assert data["config"]["deployment"] == "ssmw"
        assert isinstance(data["accuracy_history"], list)
        assert data["throughput"] > 0

    def test_save_json(self, tmp_path):
        result = Controller(small_config()).run()
        path = tmp_path / "result.json"
        result.save_json(path)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["final_accuracy"] == pytest.approx(result.final_accuracy)
        assert data["messages_sent"] == result.messages_sent


class TestCrashRecoverScenario:
    """Crash-then-recover round-trip of the crash-tolerant app, driven by a
    scenario, including bringing the recovered replica back up to date from a
    checkpoint (the classical complement to replication)."""

    def build_scenario(self, tmp_path):
        from repro.core.scenario import ScenarioSpec

        spec = ScenarioSpec.from_dict(
            {
                "name": "primary-crash-recover",
                "description": "primary crashes mid-run, backup takes over, primary recovers",
                "config": {
                    "deployment": "crash-tolerant",
                    "num_workers": 4,
                    "num_servers": 3,
                    "model": "logistic",
                    "dataset_size": 150,
                    "batch_size": 8,
                    "num_iterations": 6,
                    "accuracy_every": 2,
                    "seed": 5,
                },
                "events": [
                    {"round": 2, "action": "crash", "target": "server-0"},
                    {"round": 4, "action": "recover", "target": "server-0"},
                ],
            }
        )
        path = tmp_path / "primary_crash.json"
        spec.save(path)
        return path

    def test_failover_and_checkpoint_restore(self, tmp_path):
        from repro.core.scenario import config_for_scenario

        config = config_for_scenario(str(self.build_scenario(tmp_path)))
        controller = Controller(config)
        deployment = controller.build()
        result = controller.run(deployment)

        # The run survived the primary crash: all rounds completed and the
        # trace records the crash/recover timeline.
        assert len(deployment.metrics) == 6
        assert result.final_accuracy is not None
        events = [e["action"] for entry in result.trace.rounds for e in entry["events"]]
        assert events == ["crash", "recover"]

        # Failover happened: the backup kept training while the old primary's
        # state froze at the crash round.
        crashed, backup = deployment.servers[0], deployment.servers[1]
        assert backup.iterations_run == 6
        assert crashed.iterations_run == 2

        # Checkpoint round-trip brings the recovered replica back up to date.
        checkpoint = tmp_path / "primary.npz"
        backup.save_checkpoint(checkpoint)
        restored_iterations = crashed.load_checkpoint(checkpoint)
        assert restored_iterations == 6
        assert crashed.iterations_run == 6
        assert np.allclose(crashed.flat_parameters(), backup.flat_parameters())
        # The restored replica answers model pulls with the caught-up state.
        [reply], _ = deployment.transport.pull_many("worker-0", ["server-0"], "model", quorum=1)
        assert np.allclose(np.asarray(reply.payload), backup.flat_parameters())

    def test_all_replicas_crashed_aborts(self, tmp_path):
        from repro.core.scenario import ScenarioSpec, config_for_scenario
        from repro.exceptions import TrainingError

        spec = ScenarioSpec.from_dict(
            {
                "name": "total-server-loss",
                "config": {
                    "deployment": "crash-tolerant",
                    "num_workers": 3,
                    "num_servers": 2,
                    "model": "logistic",
                    "dataset_size": 90,
                    "batch_size": 8,
                    "num_iterations": 4,
                    "seed": 5,
                },
                "events": [
                    {"round": 1, "action": "crash", "target": "server-0"},
                    {"round": 2, "action": "crash", "target": "server-1"},
                ],
            }
        )
        path = tmp_path / "total_loss.json"
        spec.save(path)
        with pytest.raises(TrainingError):
            Controller(config_for_scenario(str(path))).run()


class TestWorkerMomentum:
    def test_momentum_accumulates_across_requests(self):
        from repro.core.worker import Worker

        transport = Transport(seed=0)
        dataset = make_classification(80, (1, 4, 4), num_classes=4, seed=2)
        worker = Worker(
            "w", transport, LogisticRegression(16, 4, seed=0), dataset, batch_size=8, momentum=0.9, seed=3
        )
        state = worker.flat_view().parameter_vector().copy()
        first = worker.compute_gradient(state)
        second = worker.compute_gradient(state)
        # With heavy momentum the second message includes most of the first.
        assert np.linalg.norm(second) > 0.5 * np.linalg.norm(first)
        assert not np.allclose(first, second)

    def test_invalid_momentum_rejected(self):
        from repro.core.worker import Worker

        transport = Transport(seed=0)
        dataset = make_classification(40, (1, 4, 4), num_classes=4, seed=2)
        with pytest.raises(ValueError):
            Worker("w", transport, LogisticRegression(16, 4), dataset, batch_size=8, momentum=1.5)

    def test_training_with_worker_momentum(self):
        config = small_config(worker_momentum=0.9, learning_rate=0.05)
        result = Controller(config).run()
        assert result.final_accuracy is not None

    def test_momentum_config_reaches_workers(self):
        deployment = Controller(small_config(worker_momentum=0.5)).build()
        assert all(w.momentum == 0.5 for w in deployment.workers)
