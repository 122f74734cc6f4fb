"""Tests for the SGD optimizer and flat-gradient application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Linear, Parameter, ReLU, Sequential
from repro.nn.optim import SGD
from repro.nn.parameters import attach_flat_view
from repro.nn.tensor import Tensor


def make_param(values):
    return Parameter(np.asarray(values, dtype=np.float64))


class TestSGD:
    def test_rejects_non_positive_lr(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.0)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.1, momentum=1.5)

    def test_basic_step(self):
        p = make_param([1.0, 2.0])
        p.grad = np.array([0.5, -0.5])
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [0.95, 2.05])

    def test_skips_params_without_grad(self):
        p = make_param([1.0])
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0])

    def test_momentum_accumulates(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()
        p.grad = np.array([1.0])
        opt.step()
        # velocities: 1.0 then 1.5 -> positions 0 - 1 - 1.5 = -2.5
        assert np.allclose(p.data, [-2.5])

    def test_weight_decay_shrinks_weights(self):
        p = make_param([10.0])
        opt = SGD([p], lr=0.1, weight_decay=0.1)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 10.0

    def test_apply_flat_gradient(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        before = np.concatenate([p.data.ravel() for p in layer.parameters()])
        opt = SGD(layer.parameters(), lr=0.5)  # bare parameters: attaches on first use
        flat = np.ones(layer.num_parameters())
        opt.apply_flat_gradient(flat)
        after = attach_flat_view(layer.parameters()).parameter_vector()
        assert np.allclose(after, before - 0.5)

    def test_apply_flat_gradient_wrong_size_raises(self):
        layer = Linear(2, 2)
        opt = SGD(layer.parameters(), lr=0.1)
        with pytest.raises(ValueError):
            opt.apply_flat_gradient(np.ones(layer.num_parameters() + 1))

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_apply_flat_gradient_is_bitwise_the_per_layer_step(self, momentum, weight_decay):
        """One tier, same numbers: the flat axpy against the per-layer loop."""

        def build():
            return Sequential(
                Linear(5, 7, rng=np.random.default_rng(0)),
                ReLU(),
                Linear(7, 3, rng=np.random.default_rng(1)),
            )

        reference, flat = build(), build()
        opt_reference = SGD(reference.parameters(), lr=0.1, momentum=momentum, weight_decay=weight_decay)
        opt_flat = SGD(flat.parameters(), lr=0.1, momentum=momentum, weight_decay=weight_decay)
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = rng.normal(size=reference.num_parameters())
            offset = 0
            for param in reference.parameters():
                param.grad = g[offset : offset + param.size].reshape(param.shape).copy()
                offset += param.size
            opt_reference.step()
            opt_flat.apply_flat_gradient(g)
            for ref_param, flat_param in zip(reference.parameters(), flat.parameters()):
                assert np.array_equal(ref_param.data, flat_param.data)
        with pytest.raises(ValueError):
            opt_flat.apply_flat_gradient(np.ones(flat.num_parameters() + 1))

    def test_training_reduces_loss_on_quadratic(self):
        p = make_param([5.0])
        opt = SGD([p], lr=0.1)
        for _ in range(50):
            p.zero_grad()
            loss = (Tensor(p.data) * 0.0).sum()  # placeholder to keep API parity
            p.grad = 2.0 * p.data  # gradient of p^2
            opt.step()
        assert abs(p.data[0]) < 0.1
        assert loss.item() == 0.0
