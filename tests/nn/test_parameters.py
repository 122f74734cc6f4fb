"""Tests for the flat parameter / gradient vector (:class:`FlatParameterView`)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.optim import SGD
from repro.nn.parameters import attach_flat_view
from repro.nn.tensor import Tensor


def build_model():
    return Sequential(Linear(3, 4, rng=np.random.default_rng(0)), ReLU(), Linear(4, 2, rng=np.random.default_rng(1)))


@pytest.fixture
def model():
    return build_model()


@pytest.fixture
def view(model):
    return attach_flat_view(model.parameters())


class TestFlatParameters:
    def test_roundtrip(self, model, view):
        flat = view.parameter_vector().copy()
        assert flat.size == model.num_parameters()
        view.set_parameters(flat * 2.0)
        assert np.allclose(view.parameter_vector(), flat * 2.0)

    def test_flat_vector_is_float64(self, view):
        assert view.parameter_vector().dtype == np.float64

    def test_two_models_same_flat_after_copy(self, view):
        other = attach_flat_view(Sequential(Linear(3, 4), ReLU(), Linear(4, 2)).parameters())
        other.set_parameters(view.parameter_vector())
        assert np.array_equal(other.parameter_vector(), view.parameter_vector())


class TestFlatGradients:
    def test_none_gradients_become_zeros(self, model):
        assert all(param.grad is None for param in model.parameters())
        flat = attach_flat_view(model.parameters()).gradient_vector()
        assert flat.size == model.num_parameters()
        assert np.allclose(flat, 0.0)

    def test_roundtrip_after_backward(self, model, view):
        model(Tensor(np.ones((2, 3)))).sum().backward()
        flat = view.gradient_vector()
        assert not np.allclose(flat, 0.0)
        view.set_gradients(np.ones_like(flat))
        assert np.allclose(view.gradient_vector(), 1.0)

    def test_set_then_get_is_identity(self, model, view):
        vector = np.random.default_rng(2).normal(size=model.num_parameters())
        view.set_gradients(vector)
        assert np.array_equal(view.gradient_vector(), vector)
        first = model.parameters()[0]
        assert np.array_equal(first.grad.reshape(-1), vector[: first.size])


class TestFlatParameterView:
    def test_attach_preserves_values_and_shapes(self, model):
        before = np.concatenate([p.data.ravel() for p in model.parameters()])
        shapes = [p.shape for p in model.parameters()]
        view = attach_flat_view(model.parameters())
        assert view.dimension == model.num_parameters()
        assert np.array_equal(view.parameter_vector(), before)
        assert [p.shape for p in model.parameters()] == shapes
        for param in model.parameters():
            assert param.data.flags.c_contiguous

    def test_attach_carries_existing_gradients(self, model):
        model(Tensor(np.ones((2, 3)))).sum().backward()
        before = np.concatenate([p.grad.ravel() for p in model.parameters()])
        assert np.array_equal(attach_flat_view(model.parameters()).gradient_vector(), before)

    def test_parameters_alias_the_flat_buffer(self, model, view):
        for param in model.parameters():
            assert np.shares_memory(param.data, view.data)
            assert np.shares_memory(param.grad, view.grad)

    def test_parameter_vector_is_readonly_zero_copy(self, view):
        vector = view.parameter_vector()
        assert not vector.flags.writeable
        assert np.shares_memory(vector, view.data)
        with pytest.raises(ValueError):
            vector[0] = 1.0

    def test_gradient_vector_tracks_backward(self, model, view):
        model.zero_grad()
        model(Tensor(np.ones((2, 3)))).sum().backward()
        flat = view.gradient_vector()
        assert not np.allclose(flat, 0.0)
        assert np.array_equal(flat, np.concatenate([p.grad.ravel() for p in model.parameters()]))

    def test_zero_grad_keeps_binding(self, model, view):
        model(Tensor(np.ones((2, 3)))).sum().backward()
        model.zero_grad()
        assert np.allclose(view.gradient_vector(), 0.0)
        for param in model.parameters():
            assert param.grad is not None and np.shares_memory(param.grad, view.grad)

    def test_set_parameters_writes_through_to_layers(self, model, view):
        target = np.arange(float(view.dimension))
        view.set_parameters(target)
        assert np.array_equal(view.parameter_vector(), target)
        first = model.parameters()[0]
        assert np.array_equal(first.data.reshape(-1), target[: first.size])

    def test_set_wrong_size_raises(self, view):
        with pytest.raises(ValueError):
            view.set_parameters(np.zeros(view.dimension + 1))
        with pytest.raises(ValueError):
            view.set_gradients(np.zeros(view.dimension - 1))

    def test_attach_is_idempotent(self, model, view):
        assert attach_flat_view(model.parameters()) is view

    def test_attach_over_a_different_parameter_list_rebuilds(self, model, view):
        head = model.parameters()[:2]
        partial = attach_flat_view(head)
        assert partial is not view and partial.dimension == sum(p.size for p in head)
        assert not view.covers(model.parameters())
        # Values always travel with the parameters, so re-attaching the full
        # list heals it again.
        healed = attach_flat_view(model.parameters())
        assert healed.covers(model.parameters())

    def test_training_matches_unattached_model_bitwise(self):
        """Attached layers + the flat axpy == bare layers + the per-layer loop."""
        plain, flat = build_model(), build_model()
        view = attach_flat_view(flat.parameters())
        opt_plain = SGD(plain.parameters(), lr=0.1, momentum=0.9, weight_decay=0.01)
        opt_flat = SGD(flat.parameters(), lr=0.1, momentum=0.9, weight_decay=0.01)
        x = np.random.default_rng(2).normal(size=(4, 3))
        for _ in range(4):
            for m in (plain, flat):
                m.zero_grad()
                m(Tensor(x)).sum().backward()
            g_plain = np.concatenate([p.grad.ravel() for p in plain.parameters()])
            assert np.array_equal(g_plain, view.gradient_vector())
            opt_plain.step()
            opt_flat.apply_flat_gradient(view.gradient_vector())
            assert np.array_equal(
                np.concatenate([p.data.ravel() for p in plain.parameters()]),
                view.parameter_vector(),
            )

    def test_pickle_severs_then_reattach_heals(self, model, view):
        model(Tensor(np.ones((2, 3)))).sum().backward()
        reference = view.parameter_vector().copy()
        gradient = view.gradient_vector().copy()
        clone = pickle.loads(pickle.dumps(model))
        # Pickling cannot preserve numpy aliasing, and the clone must not
        # claim otherwise: its parameters carry no view at all...
        assert all(not hasattr(param, "_flat_view") for param in clone.parameters())
        # ...but values round-trip, and re-attaching restores the zero-copy
        # invariants exactly.
        healed = attach_flat_view(clone.parameters())
        assert healed is not view
        assert np.array_equal(healed.parameter_vector(), reference)
        assert np.array_equal(healed.gradient_vector(), gradient)
        for param in clone.parameters():
            assert np.shares_memory(param.data, healed.data)
        assert view.covers(model.parameters()), "the original stays bound"
