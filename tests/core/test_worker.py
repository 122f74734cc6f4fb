"""Tests for the Worker object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.worker import Worker
from repro.datasets.synthetic import make_classification
from repro.network.message import RequestContext
from repro.network.transport import Transport
from repro.nn.models import LogisticRegression


@pytest.fixture
def setup():
    transport = Transport(seed=0)
    dataset = make_classification(64, (1, 4, 4), num_classes=4, noise=0.3, seed=1)
    model = LogisticRegression(input_dim=16, num_classes=4, seed=0)
    worker = Worker("worker-0", transport, model, dataset, batch_size=8, seed=2)
    return transport, worker, model


class TestWorker:
    def test_registers_gradient_handler(self, setup):
        transport, worker, _ = setup
        assert transport.has_handler("worker-0", "gradient")

    def test_compute_gradient_shape(self, setup):
        _, worker, model = setup
        flat = worker.flat_view().parameter_vector().copy()
        gradient = worker.compute_gradient(flat)
        assert gradient.shape == flat.shape
        assert np.all(np.isfinite(gradient))

    def test_compute_gradient_updates_counters(self, setup):
        _, worker, model = setup
        worker.compute_gradient(worker.flat_view().parameter_vector().copy())
        assert worker.gradients_computed == 1
        assert worker.last_loss is not None and worker.last_loss > 0
        assert worker.compute_time > 0

    def test_gradient_descends_loss_locally(self, setup):
        """Following the worker's gradient should reduce its local loss."""
        _, worker, model = setup
        flat = worker.flat_view().parameter_vector().copy()
        gradient = worker.compute_gradient(flat)
        loss_before = worker.last_loss
        worker.compute_gradient(flat - 0.5 * gradient)
        # Not strictly guaranteed for a single batch, but with a convex model
        # and small dataset the full-batch trend holds often; retry over a few
        # batches to avoid flakiness.
        losses_after = [worker.last_loss]
        for _ in range(3):
            worker.compute_gradient(flat - 0.5 * gradient)
            losses_after.append(worker.last_loss)
        assert min(losses_after) < loss_before

    def test_gradient_at_requested_model_state(self, setup):
        """The worker must evaluate at the server's model, not its own."""
        _, worker, model = setup
        zero_state = np.zeros(model.num_parameters())
        worker.compute_gradient(zero_state)
        assert np.allclose(worker.flat_view().parameter_vector().copy(), zero_state)

    def test_serve_gradient_through_transport(self, setup):
        transport, worker, model = setup
        flat = worker.flat_view().parameter_vector().copy()
        [reply], _ = transport.pull_many(
            "server-x", ["worker-0"], "gradient", quorum=1, iteration=0, payload=flat
        )
        assert reply.payload.shape == flat.shape

    def test_gradient_cached_per_iteration(self, setup):
        _, worker, model = setup
        flat = worker.flat_view().parameter_vector().copy()
        first = worker._serve_gradient(RequestContext(requester="s0", iteration=5, payload=flat))
        second = worker._serve_gradient(RequestContext(requester="s1", iteration=5, payload=flat))
        assert worker.gradients_computed == 1
        assert np.allclose(first, second)

    def test_new_iteration_recomputes(self, setup):
        _, worker, model = setup
        flat = worker.flat_view().parameter_vector().copy()
        worker._serve_gradient(RequestContext(requester="s0", iteration=1, payload=flat))
        worker._serve_gradient(RequestContext(requester="s0", iteration=2, payload=flat))
        assert worker.gradients_computed == 2

    def test_different_batches_give_different_gradients(self, setup):
        _, worker, model = setup
        flat = worker.flat_view().parameter_vector().copy()
        g1 = worker.compute_gradient(flat)
        g2 = worker.compute_gradient(flat)
        assert not np.allclose(g1, g2)
