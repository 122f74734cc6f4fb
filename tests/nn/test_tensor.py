"""Unit tests for the autograd Tensor."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn import tensor
from repro.nn.tensor import Tensor, no_grad


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


class TestBasics:
    def test_wraps_data_as_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_on_non_scalar_without_grad_raises(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            t.backward()


class TestArithmetic:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_add_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (a + 5.0).sum()
        out.backward()
        assert np.allclose(out.data, 13.0)
        assert np.allclose(a.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, b.data)
        assert np.allclose(b.grad, a.data)

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward()
        assert np.allclose(a.grad, [1.0])
        assert np.allclose(b.grad, [-1.0])

    def test_rsub(self):
        a = Tensor([2.0], requires_grad=True)
        (10.0 - a).backward()
        assert np.allclose(a.grad, [-1.0])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).backward()
        assert np.allclose(a.grad, [1.0 / 3.0])
        assert np.allclose(b.grad, [-6.0 / 9.0])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward()
        assert np.allclose(a.grad, [6.0])

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, [2.0, 2.0, 2.0])

    def test_grad_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).backward()
        assert np.allclose(a.grad, [4.0])

    def test_matmul_backward_matches_numeric(self):
        rng = np.random.default_rng(0)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))
        a = Tensor(a_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        (a @ b).sum().backward()
        num_a = numeric_grad(lambda x: (x @ b_val).sum(), a_val.copy())
        num_b = numeric_grad(lambda x: (a_val @ x).sum(), b_val.copy())
        assert np.allclose(a.grad, num_a, atol=1e-5)
        assert np.allclose(b.grad, num_b, atol=1e-5)

    def test_matmul_skips_the_gradient_of_a_non_grad_operand(self, monkeypatch):
        """A data batch needs no ``grad @ W.T``: only the weight's is computed."""
        calls = []
        swapaxes = tensor.np.swapaxes
        monkeypatch.setattr(tensor.np, "swapaxes", lambda *a: calls.append(1) or swapaxes(*a))
        x = Tensor(np.ones((4, 3)))
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        (x @ w).sum().backward()
        assert len(calls) == 1
        assert np.allclose(w.grad, np.full((3, 2), 4.0))
        assert x.grad is None

    def test_mul_and_div_grads_with_a_non_grad_operand(self):
        c = Tensor([3.0, 5.0])
        w = Tensor([2.0, 4.0], requires_grad=True)
        (w * c).sum().backward()
        assert np.allclose(w.grad, [3.0, 5.0])
        w.zero_grad()
        (c / w).sum().backward()
        assert np.allclose(w.grad, [-0.75, -5.0 / 16.0])
        assert c.grad is None

    def test_an_ndarray_on_the_left_defers_to_the_reflected_operator(self):
        w = Tensor([2.0, 4.0], requires_grad=True)
        out = np.array([3.0, 5.0]) / w
        assert isinstance(out, Tensor)
        out.sum().backward()
        assert np.array_equal(w.grad, [-0.75, -0.3125])
        for result in (np.ones(2) * w, np.ones(2) + w, np.ones(2) - w):
            assert isinstance(result, Tensor)
            assert result.requires_grad


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=0, keepdims=True)
        assert out.shape == (1, 3)
        out.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_sum_axis_no_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.sum(axis=1).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        a = Tensor(np.ones((4,)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, np.full(4, 0.25))

    def test_mean_axis_tuple(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = a.mean(axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        assert np.allclose(a.grad, np.full((2, 3, 4), 1.0 / 12))

    def test_first_gradient_keeps_its_layout_unless_broadcast(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        a.sum(axis=0).sum().backward()
        assert a.grad.flags.c_contiguous
        b = Tensor(np.ones((4, 3)), requires_grad=True)
        (b * 2.0).backward(np.ones((3, 4)).T)
        assert b.grad.flags.f_contiguous

    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_reshape_minus_one(self):
        a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        assert a.reshape(3, -1).shape == (3, 4)


class TestNonLinearities:
    def test_relu_forward_backward(self):
        a = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        out = a.relu()
        assert np.allclose(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        assert np.allclose(a.grad, [0.0, 0.0, 1.0])

class TestSoftmax:
    def test_log_softmax_rows_sum_to_one_after_exp(self):
        logits = Tensor(np.random.default_rng(1).normal(size=(4, 5)), requires_grad=True)
        probs = np.exp(logits.log_softmax().data)
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_log_softmax_invariant_to_constant_shift(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = Tensor(x).log_softmax().data
        b = Tensor(x + 100.0).log_softmax().data
        assert np.allclose(a, b)

    def test_log_softmax_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4))
        t = Tensor(x.copy(), requires_grad=True)
        t.log_softmax().gather_rows(np.array([1, 3])).sum().backward()

        def fn(v):
            shifted = v - v.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            return logp[np.arange(2), [1, 3]].sum()

        assert np.allclose(t.grad, numeric_grad(fn, x.copy()), atol=1e-5)

    def test_gather_rows(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        picked = t.gather_rows(np.array([2, 0]))
        assert np.allclose(picked.data, [2.0, 3.0])
        picked.sum().backward()
        expected = np.zeros((2, 3))
        expected[0, 2] = 1.0
        expected[1, 0] = 1.0
        assert np.allclose(t.grad, expected)


class TestGraphTraversal:
    def test_deep_chain_backward(self):
        x = Tensor([1.0], requires_grad=True)
        out = x
        for _ in range(200):
            out = out * 1.01
        out.backward()
        assert x.grad is not None
        assert np.isfinite(x.grad).all()

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        (a + b).backward()
        assert np.allclose(x.grad, [7.0])

    def test_zero_grad_clears(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x).backward()
        x.zero_grad()
        assert x.grad is None


def _records(x: Tensor) -> bool:
    """Whether an operation on ``x`` records a graph in the calling thread."""
    out = x.relu()
    return out.requires_grad and out._parents == (x,)


class TestNoGrad:
    def test_results_keep_no_parents_inside_the_scope(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            out = (x * 3.0).relu().sum()
        assert not out.requires_grad and out._parents == ()
        assert _records(x)

    def test_values_are_the_same(self):
        x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4), requires_grad=True)
        recorded = x.log_softmax().mean()
        with no_grad():
            bare = x.log_softmax().mean()
        assert bare.data.tobytes() == recorded.data.tobytes()

    def test_scopes_nest(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                assert not _records(x)
            assert not _records(x)
        assert _records(x)

    def test_restored_after_an_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("inside the scope")
        assert _records(x)

    def test_scope_is_per_thread(self):
        """A pool thread taking a gradient meanwhile still records its graph."""
        x = Tensor([1.0, -2.0], requires_grad=True)
        entered, computed = threading.Event(), threading.Event()
        seen = {}

        def other_thread():
            entered.wait()
            y = Tensor([3.0, 4.0], requires_grad=True)
            loss = (y * y).sum()
            seen["records"] = loss.requires_grad
            loss.backward()
            seen["grad"] = y.grad.copy()
            computed.set()

        thread = threading.Thread(target=other_thread)
        thread.start()
        with no_grad():
            entered.set()
            assert computed.wait(timeout=10)
            assert not _records(x)
        thread.join()
        assert seen["records"] and np.array_equal(seen["grad"], [6.0, 8.0])
