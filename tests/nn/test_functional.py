"""Tests for conv2d / pooling primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def numeric_grad(fn, value, eps=1e-6):
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    it = np.nditer(value, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = value[idx]
        value[idx] = orig + eps
        plus = fn(value)
        value[idx] = orig - eps
        minus = fn(value)
        value[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestConv2d:
    def test_output_shape_no_padding(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        w = Tensor(np.random.default_rng(1).normal(size=(4, 3, 3, 3)))
        b = Tensor(np.zeros(4))
        out = F.conv2d(x, w, b)
        assert out.shape == (2, 4, 6, 6)

    def test_output_shape_with_padding_and_stride(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.zeros(2))
        out = F.conv2d(x, w, b, stride=2, padding=1)
        assert out.shape == (1, 2, 4, 4)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((2, 3, 3, 3)))
        b = Tensor(np.zeros(2))
        with pytest.raises(ValueError):
            F.conv2d(x, w, b)

    def test_identity_kernel(self):
        """A 1x1 kernel equal to 1 copies the input channel."""
        x_val = np.random.default_rng(2).normal(size=(1, 1, 5, 5))
        x = Tensor(x_val)
        w = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = F.conv2d(x, w, b)
        assert np.allclose(out.data, x_val)

    def test_bias_is_added(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.5, -2.0]))
        out = F.conv2d(x, w, b)
        assert np.allclose(out.data[0, 0], 1.5)
        assert np.allclose(out.data[0, 1], -2.0)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(3)
        x_val = rng.normal(size=(1, 2, 4, 4))
        w_val = rng.normal(size=(2, 2, 3, 3))
        b_val = rng.normal(size=(2,))

        def forward(xv, wv, bv):
            return F.conv2d(Tensor(xv), Tensor(wv), Tensor(bv), padding=1).data.sum()

        x = Tensor(x_val.copy(), requires_grad=True)
        w = Tensor(w_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        F.conv2d(x, w, b, padding=1).sum().backward()

        assert np.allclose(x.grad, numeric_grad(lambda v: forward(v, w_val, b_val), x_val.copy()), atol=1e-5)
        assert np.allclose(w.grad, numeric_grad(lambda v: forward(x_val, v, b_val), w_val.copy()), atol=1e-5)
        assert np.allclose(b.grad, numeric_grad(lambda v: forward(x_val, w_val, v), b_val.copy()), atol=1e-5)


class TestPooling:
    def test_max_pool_shape_and_values(self):
        x_val = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x_val), kernel=2)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.data.ravel(), [5.0, 7.0, 13.0, 15.0])

    def test_max_pool_gradient_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, kernel=2).sum().backward()
        grad = x.grad.reshape(4, 4)
        assert grad.sum() == pytest.approx(4.0)
        assert grad[1, 1] == 1.0 and grad[3, 3] == 1.0
        assert grad[0, 0] == 0.0

    def test_avg_pool_values(self):
        x_val = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x_val), kernel=2)
        assert np.allclose(out.data.ravel(), [2.5, 4.5, 10.5, 12.5])

    def test_avg_pool_gradient_uniform(self):
        x = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
        F.avg_pool2d(x, kernel=2).sum().backward()
        assert np.allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_max_pool_multichannel_batch(self):
        x = Tensor(np.random.default_rng(4).normal(size=(3, 2, 6, 6)), requires_grad=True)
        out = F.max_pool2d(x, kernel=3)
        assert out.shape == (3, 2, 2, 2)
        out.sum().backward()
        assert x.grad.shape == (3, 2, 6, 6)
