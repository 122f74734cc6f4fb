"""Tests for ByzantineWorker / ByzantineServer behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import ReversedVectorAttack
from repro.core.byzantine import ByzantineServer, ByzantineWorker
from repro.core.server import Server
from repro.core.worker import Worker
from repro.datasets.synthetic import make_classification
from repro.exceptions import TimeoutError
from repro.network.transport import Transport
from repro.nn.models import LogisticRegression


@pytest.fixture
def cluster():
    transport = Transport(seed=0)
    dataset = make_classification(80, (1, 4, 4), num_classes=4, noise=0.3, seed=1)

    honest_worker = Worker(
        "worker-0", transport, LogisticRegression(16, 4, seed=0), dataset, batch_size=8, seed=1
    )
    byz_worker = ByzantineWorker(
        "worker-1",
        transport,
        LogisticRegression(16, 4, seed=0),
        dataset,
        batch_size=8,
        seed=1,
        attack="reversed",
    )
    server_ids = ["server-0", "server-1"]
    honest_server = Server(
        "server-0",
        transport,
        LogisticRegression(16, 4, seed=0),
        workers=["worker-0", "worker-1"],
        servers=server_ids,
        test_dataset=dataset,
    )
    byz_server = ByzantineServer(
        "server-1",
        transport,
        LogisticRegression(16, 4, seed=0),
        workers=["worker-0", "worker-1"],
        servers=server_ids,
        test_dataset=dataset,
        attack="random",
    )
    return transport, honest_server, byz_server, honest_worker, byz_worker


class TestByzantineWorker:
    def test_is_a_worker_subclass(self):
        assert issubclass(ByzantineWorker, Worker)

    def test_serves_corrupted_gradient(self, cluster):
        transport, server, _, honest_worker, byz_worker = cluster
        flat = server.flat_parameters()
        pull = dict(quorum=1, iteration=0, payload=flat)
        [honest_reply], _ = transport.pull_many("server-0", ["worker-0"], "gradient", **pull)
        [byz_reply], _ = transport.pull_many("server-0", ["worker-1"], "gradient", **pull)
        # The reversed attack multiplies by -100, so the norms differ hugely.
        assert np.linalg.norm(byz_reply.payload) > 10 * np.linalg.norm(honest_reply.payload)

    def test_accepts_attack_instance(self):
        transport = Transport(seed=3)
        dataset = make_classification(40, (1, 4, 4), num_classes=4, seed=0)
        worker = ByzantineWorker(
            "w",
            transport,
            LogisticRegression(16, 4),
            dataset,
            batch_size=8,
            attack=ReversedVectorAttack(factor=-2.0),
        )
        assert worker.attack.factor == -2.0

    def test_drop_attack_makes_worker_silent(self):
        transport = Transport(seed=3)
        dataset = make_classification(40, (1, 4, 4), num_classes=4, seed=0)
        worker = ByzantineWorker(
            "w", transport, LogisticRegression(16, 4), dataset, batch_size=8, attack="drop"
        )
        with pytest.raises(TimeoutError, match=r"0 usable .* silent/late: w \|"):
            transport.pull_many(
                "s", ["w"], "gradient", quorum=1, payload=np.zeros(worker.model.num_parameters())
            )


class TestByzantineServer:
    def test_is_a_server_subclass(self):
        assert issubclass(ByzantineServer, Server)

    def test_serves_corrupted_model(self, cluster):
        transport, honest_server, byz_server, _, _ = cluster
        honest_state = byz_server.flat_parameters()
        [reply], _ = transport.pull_many("server-0", ["server-1"], "model", quorum=1)
        assert not np.allclose(reply.payload, honest_state)

    def test_honest_server_model_is_untouched(self, cluster):
        transport, honest_server, _, _, _ = cluster
        [reply], _ = transport.pull_many("server-1", ["server-0"], "model", quorum=1)
        assert np.allclose(reply.payload, honest_server.flat_parameters())

    def test_byzantine_server_still_trains_locally(self, cluster):
        _, _, byz_server, _, _ = cluster
        before = byz_server.flat_parameters().copy()
        byz_server.update_model(np.ones(byz_server.dimension))
        assert not np.allclose(byz_server.flat_parameters(), before)

    def test_corrupted_aggregated_gradient(self, cluster):
        transport, _, byz_server, _, _ = cluster
        byz_server.latest_aggr_grad = np.ones(byz_server.dimension)
        [reply], _ = transport.pull_many("server-0", ["server-1"], "aggregated_gradient", quorum=1)
        assert not np.allclose(reply.payload, 1.0)

    def test_unset_aggregated_gradient_stays_silent(self, cluster):
        transport, _, byz_server, _, _ = cluster
        with pytest.raises(TimeoutError, match=r"0 usable .* silent/late: server-1 \|"):
            transport.pull_many("server-0", ["server-1"], "aggregated_gradient", quorum=1)
