"""Tests for Module and the layer zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor


class TestModule:
    def test_parameters_discovered_recursively(self):
        model = Sequential(Linear(4, 3), ReLU(), Linear(3, 2))
        params = model.parameters()
        assert len(params) == 4  # two weights + two biases

    def test_named_parameters_have_unique_names(self):
        model = Sequential(Linear(4, 3), Linear(3, 2))
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names)) == 4

    def test_num_parameters(self):
        layer = Linear(4, 3)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_zero_grad_clears_all(self):
        model = Sequential(Linear(4, 3), ReLU())
        out = model(Tensor(np.ones((2, 4)))).sum()
        out.backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_train_eval_propagate(self):
        model = Sequential(Linear(2, 2), Dropout(0.5))
        model.eval()
        assert all(not layer.training for layer in model)
        model.train()
        assert all(layer.training for layer in model)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module().forward(Tensor([1.0]))

    def test_parameter_requires_grad(self):
        assert Parameter(np.zeros(3)).requires_grad


class TestLinear:
    def test_output_shape(self):
        out = Linear(5, 7)(Tensor(np.zeros((3, 5))))
        assert out.shape == (3, 7)

    def test_zero_input_gives_bias(self):
        layer = Linear(4, 2)
        layer.bias.data[:] = [1.0, -1.0]
        out = layer(Tensor(np.zeros((1, 4))))
        assert np.allclose(out.data, [[1.0, -1.0]])

    def test_deterministic_with_same_rng(self):
        a = Linear(4, 4, rng=np.random.default_rng(0))
        b = Linear(4, 4, rng=np.random.default_rng(0))
        assert np.allclose(a.weight.data, b.weight.data)

    def test_gradients_flow_to_weights(self):
        layer = Linear(3, 2)
        layer(Tensor(np.ones((4, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert np.allclose(layer.bias.grad, [4.0, 4.0])


class TestConvLayer:
    def test_shapes(self):
        layer = Conv2d(3, 8, kernel_size=3, padding=1)
        out = layer(Tensor(np.zeros((2, 3, 16, 16))))
        assert out.shape == (2, 8, 16, 16)

    def test_parameter_count(self):
        layer = Conv2d(3, 8, kernel_size=3)
        assert layer.num_parameters() == 8 * 3 * 3 * 3 + 8


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.9)
        layer.eval()
        x = np.random.default_rng(0).normal(size=(10, 10))
        assert np.allclose(layer(Tensor(x)).data, x)

    def test_training_mode_zeroes_some_entries(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((50, 50))))
        zero_fraction = float((out.data == 0).mean())
        assert 0.3 < zero_fraction < 0.7

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_inverted_scaling_preserves_mean(self):
        layer = Dropout(0.5, rng=np.random.default_rng(1))
        out = layer(Tensor(np.ones((200, 200))))
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)


class TestContainers:
    def test_flatten(self):
        out = Flatten()(Tensor(np.zeros((4, 2, 3, 3))))
        assert out.shape == (4, 18)

    def test_pool_layers(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        assert MaxPool2d(2)(x).shape == (1, 1, 4, 4)
        assert AvgPool2d(4)(x).shape == (1, 1, 2, 2)

    def test_sequential_iteration_and_len(self):
        seq = Sequential(Linear(2, 2), ReLU(), Linear(2, 2))
        assert len(seq) == 3
        assert len(list(seq)) == 3

    def test_sequential_applies_in_order(self):
        first = Linear(2, 2, rng=np.random.default_rng(0))
        first.weight.data[:] = np.eye(2)
        first.bias.data[:] = [-10.0, -10.0]
        seq = Sequential(first, ReLU())
        out = seq(Tensor(np.ones((1, 2))))
        assert np.allclose(out.data, 0.0)
