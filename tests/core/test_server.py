"""Tests for the Server object and its networking abstractions."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.cluster import ClusterConfig
from repro.core.server import Server
from repro.core.session import Session
from repro.core.worker import Worker
from repro.datasets.partition import partition_iid
from repro.datasets.synthetic import make_classification
from repro.exceptions import ConfigurationError, TrainingError
from repro.network.serialization import message_nbytes
from repro.network.transport import Transport
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import LogisticRegression
from repro.nn.tensor import Tensor


def build_ps_cluster(num_workers=4, num_servers=2, seed=0):
    transport = Transport(seed=seed)
    dataset = make_classification(160, (1, 4, 4), num_classes=4, noise=0.3, seed=seed)
    train, test = dataset.split(0.25, seed=seed)
    shards = partition_iid(train, num_workers, seed=seed)
    workers = [
        Worker(
            f"worker-{i}",
            transport,
            LogisticRegression(input_dim=16, num_classes=4, seed=0),
            shards[i],
            batch_size=8,
            seed=seed + i,
        )
        for i in range(num_workers)
    ]
    server_ids = [f"server-{i}" for i in range(num_servers)]
    servers = [
        Server(
            server_ids[i],
            transport,
            LogisticRegression(input_dim=16, num_classes=4, seed=0),
            workers=[w.node_id for w in workers],
            servers=server_ids,
            test_dataset=test,
            learning_rate=0.1,
        )
        for i in range(num_servers)
    ]
    return transport, servers, workers, test


class TestModelState:
    def test_flat_parameters_dimension(self):
        _, servers, _, _ = build_ps_cluster()
        server = servers[0]
        assert server.flat_parameters().shape == (server.dimension,)

    def test_write_model_roundtrip(self):
        _, servers, _, _ = build_ps_cluster()
        server = servers[0]
        new_state = np.random.default_rng(0).normal(size=server.dimension)
        server.write_model(new_state)
        assert np.allclose(server.flat_parameters(), new_state)

    def test_write_model_wrong_dimension(self):
        _, servers, _, _ = build_ps_cluster()
        with pytest.raises(ConfigurationError):
            servers[0].write_model(np.zeros(3))

    def test_update_model_applies_sgd_step(self):
        _, servers, _, _ = build_ps_cluster()
        server = servers[0]
        before = server.flat_parameters().copy()
        gradient = np.ones(server.dimension)
        server.update_model(gradient)
        after = server.flat_parameters()
        assert np.allclose(after, before - server.optimizer.lr * gradient)
        assert server.iterations_run == 1

    def test_update_model_rejects_nan(self):
        _, servers, _, _ = build_ps_cluster()
        bad = np.full(servers[0].dimension, np.nan)
        with pytest.raises(TrainingError):
            servers[0].update_model(bad)

    def test_servers_start_identical(self):
        _, servers, _, _ = build_ps_cluster()
        assert np.allclose(servers[0].flat_parameters(), servers[1].flat_parameters())


class TestNetworkingAbstractions:
    def test_get_gradients_returns_quorum(self):
        _, servers, workers, _ = build_ps_cluster(num_workers=5)
        gradients = servers[0].get_gradient_matrix(iteration=0, quorum=3)
        assert gradients.shape == (3, servers[0].dimension)

    def test_get_gradients_defaults_to_all_workers(self):
        _, servers, workers, _ = build_ps_cluster(num_workers=4)
        assert len(servers[0].get_gradient_matrix(iteration=0)) == 4

    def test_get_gradients_charges_comm_time_and_messages(self):
        _, servers, _, _ = build_ps_cluster(num_workers=4)
        server = servers[0]
        server.get_gradient_matrix(iteration=0, quorum=2)
        charge = server.transport.ledger.charge(server.node_id)
        assert charge.elapsed > 0
        # Four requests shipping the model state, two selected replies: all
        # model-sized, each priced by the one rule.
        assert charge.messages == 4 + 2
        assert charge.nbytes == (4 + 2) * message_nbytes(server.dimension)

    def test_get_gradients_without_workers_raises(self):
        transport = Transport()
        server = Server("lonely", transport, LogisticRegression(input_dim=16, num_classes=4))
        with pytest.raises(ConfigurationError):
            server.get_gradient_matrix(0)

    def test_get_models_fetches_peer_state(self):
        _, servers, _, _ = build_ps_cluster(num_servers=3)
        target_state = np.full(servers[0].dimension, 0.5)
        servers[1].write_model(target_state)
        servers[2].write_model(target_state)
        models = servers[0].get_model_matrix(quorum=2)
        assert len(models) == 2
        assert all(np.allclose(m, target_state) for m in models)

    def test_get_models_excludes_self(self):
        _, servers, _, _ = build_ps_cluster(num_servers=2)
        assert servers[0].servers == ["server-1"]

    def test_get_models_without_peers_raises(self):
        _, servers, _, _ = build_ps_cluster(num_servers=1)
        with pytest.raises(ConfigurationError):
            servers[0].get_model_matrix()

    def test_get_aggr_grads_serves_latest(self):
        _, servers, _, _ = build_ps_cluster(num_servers=2)
        servers[1].latest_aggr_grad = np.full(servers[1].dimension, 2.0)
        grads = servers[0].get_aggr_grad_matrix(quorum=1)
        assert np.allclose(grads[0], 2.0)

    def test_get_aggr_grads_silent_when_unset(self):
        from repro.exceptions import TimeoutError

        _, servers, _, _ = build_ps_cluster(num_servers=2)
        with pytest.raises(TimeoutError):
            servers[0].get_aggr_grad_matrix(quorum=1)


class TestEvaluation:
    def test_compute_accuracy_in_unit_interval(self):
        _, servers, _, _ = build_ps_cluster()
        accuracy = servers[0].compute_accuracy()
        assert 0.0 <= accuracy <= 1.0

    def test_compute_accuracy_without_test_set_raises(self):
        transport = Transport()
        server = Server("s", transport, LogisticRegression(input_dim=16, num_classes=4))
        with pytest.raises(ConfigurationError):
            server.compute_accuracy()

    def test_compute_accuracy_improves_after_training(self):
        _, servers, workers, test = build_ps_cluster(num_workers=4)
        server = servers[0]
        before = server.compute_accuracy()
        for iteration in range(25):
            gradients = server.get_gradient_matrix(iteration)
            server.update_model(np.mean(gradients, axis=0))
        after = server.compute_accuracy()
        assert after >= before
        assert after > 0.5

    def test_compute_loss_positive(self):
        _, servers, _, _ = build_ps_cluster()
        assert servers[0].compute_loss() > 0.0

    def test_accuracy_uses_explicit_dataset_argument(self):
        _, servers, _, test = build_ps_cluster()
        assert servers[0].compute_accuracy(test) == servers[0].compute_accuracy()

    def test_loss_weighs_each_batch_by_its_size(self):
        """300 test examples: a full batch of 256 and a short one of 44."""
        config = ClusterConfig(
            deployment="ssmw", num_workers=5, gradient_gar="average", model="logistic",
            dataset="mnist", dataset_size=1500,
        )
        with Session(config=config) as session:
            server = session.reporting_server
            assert len(server.test_dataset) == 300 and server.eval_batch_size == 256
            batched = server.compute_loss()
            server.eval_batch_size = len(server.test_dataset)
            assert batched == pytest.approx(server.compute_loss(), rel=1e-12)

    def test_one_batch_loss_is_that_batch_mean(self):
        _, servers, _, test = build_ps_cluster()
        server = servers[0]
        expected = CrossEntropyLoss()(server.model(Tensor(test.images)), test.labels).item()
        assert server.compute_loss() == expected

    @pytest.mark.parametrize("method", ["compute_loss", "compute_accuracy"])
    def test_train_mode_and_graph_restored_on_an_exception(self, method, monkeypatch):
        _, servers, _, _ = build_ps_cluster()
        model = servers[0].model

        def broken(x):
            raise RuntimeError("forward failed")

        monkeypatch.setattr(model, "forward", broken)
        with pytest.raises(RuntimeError, match="forward failed"):
            getattr(servers[0], method)()
        assert model.training
        weight = model.parameters()[0]
        assert weight.relu()._parents == (weight,)


def _cnn_session(**overrides) -> Session:
    """The e2e CNN workload's data (600 mnist examples, 120 of them test) on a small ssmw."""
    config = dict(
        deployment="ssmw", num_workers=3, gradient_gar="average", model="mnist_cnn",
        dataset="mnist", dataset_size=600, dataset_noise=0.8, batch_size=8, seed=1,
    )
    return Session(config=ClusterConfig(**dict(config, **overrides)))


class TestEvaluationMemory:
    def test_cnn_evaluation_keeps_no_graph(self, monkeypatch):
        """At the loss, no Tensor with parents is alive, and the traced peak is at most
        0.3 x a forward pass that records its graph (all 120 images' im2col ``cols``
        per convolution; without a graph each convolution holds one block of images)."""
        with _cnn_session() as session:
            server = session.reporting_server
            test = server.test_dataset
            assert len(test) == 120
            tracemalloc.start()
            try:
                CrossEntropyLoss()(server.model(Tensor(test.images)), test.labels)
                recorded = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            graphs = []
            original = CrossEntropyLoss.__call__

            def counting(loss, logits, labels):
                graphs.append(sum(1 for o in gc.get_objects() if isinstance(o, Tensor) and o._parents))
                return original(loss, logits, labels)

            monkeypatch.setattr(CrossEntropyLoss, "__call__", counting)
            gc.collect()
            tracemalloc.start()
            try:
                server.compute_loss()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert graphs == [0]
            assert peak <= 0.3 * recorded, (peak, recorded)

    def test_worker_gradient_after_an_evaluation_is_unchanged(self):
        gradients = []
        for evaluate in (False, True):
            with _cnn_session() as session:
                server = session.reporting_server
                if evaluate:
                    server.compute_loss()
                    server.compute_accuracy()
                worker = session.deployment.workers[0]
                gradients.append(worker.compute_gradient(server.flat_parameters()).tobytes())
        assert gradients[0] == gradients[1]
