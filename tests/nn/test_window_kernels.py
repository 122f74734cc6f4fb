"""The strided-window kernels against the index-gather ones they replaced.

``repro.nn.functional`` builds convolution and pooling on two helpers,
``_im2col`` and ``_col2im``.  They used to gather through index tables and
scatter with ``np.add.at``; now they copy out of a sliding-window view and add
shifted slices.  Training traces, goldens and benchmark quality numbers all
depend on the two being the *same function to the last bit*, so:

* the old helpers live on **here** as the reference, and every output and
  gradient of ``conv2d`` / ``max_pool2d`` / ``avg_pool2d`` is compared with
  ``np.array_equal`` over a grid of kernels, strides and paddings on sizes the
  window does not tile;
* ``window_kernels_fixture.json`` holds the ``update_norm`` of five ``ssmw`` /
  ``mnist_cnn`` rounds recorded with the old helpers (floats as ``repr``).  Run
  this file as a script to regenerate it — against the old source, and only
  when the arithmetic itself is meant to change;
* a guard runs one ``mnist_cnn`` step with ``np.add.at`` made to raise.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.cluster import ClusterConfig
from repro.core.session import Session
from repro.nn import functional as F
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_model
from repro.nn.tensor import Tensor
from test_functional import numeric_grad

FIXTURE = Path(__file__).with_name("window_kernels_fixture.json")
ROUNDS = 5
#: Neither side is a multiple of any kernel or stride in the grid.
SIZES = ((9, 8), (10, 11))


# ---------------------------------------------------------------------- #
# The reference: the helpers as they were before the strided-window rewrite
# ---------------------------------------------------------------------- #
def _reference_indices(x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    i0 = np.tile(np.repeat(np.arange(kernel), kernel), c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kernel * kernel).reshape(-1, 1)
    return k, i, j, out_h, out_w


def reference_im2col(x, kernel, stride, padding):
    c = x.shape[1]
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")
    k, i, j, out_h, out_w = _reference_indices(x.shape, kernel, stride, padding)
    cols = padded[:, k, i, j].transpose(1, 2, 0).reshape(c * kernel * kernel, -1)
    return cols, out_h, out_w


def reference_col2im(cols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    k, i, j, _, _ = _reference_indices(x_shape, kernel, stride, padding)
    np.add.at(padded, (slice(None), k, i, j), cols.reshape(c * kernel * kernel, -1, n).transpose(2, 0, 1))
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def both(run):
    """``run()`` with the shipped helpers and again with the reference ones."""
    shipped = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(F, "_im2col", reference_im2col)
        patch.setattr(F, "_col2im", reference_col2im)
        return shipped, run()


def assert_identical(shipped, reference):
    assert len(shipped) == len(reference)
    for got, want in zip(shipped, reference):
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------- #
# Bit-identity over the grid
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("requires_grad", [True, False])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize(
    "kernel,stride,padding", itertools.product((1, 2, 3, 5), (1, 2, 3), (0, 1, 2))
)
def test_conv2d_is_bit_identical_to_the_index_gather(kernel, stride, padding, size, requires_grad):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    x_val = rng.normal(size=(3, 2) + size)
    w_val = rng.normal(size=(4, 2, kernel, kernel))
    b_val = rng.normal(size=4)
    upstream = rng.normal(size=(3, 4, 40, 40))

    def run():
        x = Tensor(x_val.copy(), requires_grad=requires_grad)
        w = Tensor(w_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        out.backward(upstream[:, :, : out.shape[2], : out.shape[3]])
        return out.data, x.grad, w.grad, b.grad

    assert_identical(*both(run))


@pytest.mark.parametrize("pool", [F.max_pool2d, F.avg_pool2d])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kernel,stride", itertools.product((1, 2, 3, 5), (1, 2, 3)))
def test_pooling_is_bit_identical_to_the_index_gather(kernel, stride, size, pool):
    rng = np.random.default_rng(kernel * 10 + stride)
    # Rounded to integers: most windows hold their maximum more than once.
    x_val = rng.normal(scale=2.0, size=(3, 2) + size).round()
    upstream = rng.normal(size=(3, 2, 40, 40))

    def run():
        x = Tensor(x_val.copy(), requires_grad=True)
        out = pool(x, kernel, stride)
        out.backward(upstream[:, :, : out.shape[2], : out.shape[3]])
        return out.data, x.grad

    assert_identical(*both(run))


def test_read_only_input_is_neither_written_nor_refused():
    rng = np.random.default_rng(0)
    x_val = rng.normal(size=(2, 2, 9, 8))
    x_val.setflags(write=False)
    pristine = x_val.copy()
    w_val = rng.normal(size=(3, 2, 3, 3))

    def run():
        x = Tensor(x_val, requires_grad=True)
        w = Tensor(w_val.copy(), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = F.max_pool2d(F.conv2d(x, w, b, stride=2, padding=1), 2)
        out.sum().backward()
        return out.data, x.grad, w.grad, b.grad

    assert_identical(*both(run))
    assert np.array_equal(x_val, pristine)


def test_max_pool_tie_goes_to_the_first_maximum_in_window_order():
    # Overlapping 2x2 windows (stride 1) over a constant image: every window
    # is a four-way tie, and its gradient must land on its top-left pixel.
    x = Tensor(np.full((1, 1, 3, 3), 7.0), requires_grad=True)
    F.max_pool2d(x, kernel=2, stride=1).sum().backward()
    assert np.array_equal(x.grad[0, 0], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])

    # The tie is between the top-right and the bottom-left pixel: row-major
    # window order visits the top-right one first.
    window = np.array([[0.0, 5.0], [5.0, 1.0]]).reshape(1, 1, 2, 2)
    x = Tensor(window, requires_grad=True)
    F.max_pool2d(x, kernel=2).sum().backward()
    assert np.array_equal(x.grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------------- #
# Finite differences where windows stride and overlap
# ---------------------------------------------------------------------- #
def test_stride_two_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    x_val = rng.normal(size=(2, 2, 7, 6))
    w_val = rng.normal(size=(3, 2, 3, 3))
    b_val = rng.normal(size=3)
    weights = rng.normal(size=(2, 3, 4, 3))

    def loss(xv, wv, bv):
        out = F.conv2d(Tensor(xv), Tensor(wv), Tensor(bv), stride=2, padding=1)
        return (out.data * weights).sum()

    x = Tensor(x_val.copy(), requires_grad=True)
    w = Tensor(w_val.copy(), requires_grad=True)
    b = Tensor(b_val.copy(), requires_grad=True)
    F.conv2d(x, w, b, stride=2, padding=1).backward(weights)

    assert np.allclose(x.grad, numeric_grad(lambda v: loss(v, w_val, b_val), x_val.copy()), atol=1e-5)
    assert np.allclose(w.grad, numeric_grad(lambda v: loss(x_val, v, b_val), w_val.copy()), atol=1e-5)
    assert np.allclose(b.grad, numeric_grad(lambda v: loss(x_val, w_val, v), b_val.copy()), atol=1e-5)


@pytest.mark.parametrize("pool", [F.max_pool2d, F.avg_pool2d])
def test_overlapping_pool_gradient_matches_finite_differences(pool):
    rng = np.random.default_rng(6)
    # A permutation scaled to gaps of 0.1: no ties, and no maximum changes
    # hands under the finite-difference step.
    x_val = rng.permutation(2 * 2 * 7 * 8).reshape(2, 2, 7, 8) / 10.0
    weights = rng.normal(size=(2, 2, 3, 3))

    x = Tensor(x_val.copy(), requires_grad=True)
    pool(x, kernel=3, stride=2).backward(weights)

    numeric = numeric_grad(lambda v: (pool(Tensor(v), kernel=3, stride=2).data * weights).sum(), x_val.copy())
    assert np.allclose(x.grad, numeric, atol=1e-5)


# ---------------------------------------------------------------------- #
# A training run, and the scatter that must stay gone
# ---------------------------------------------------------------------- #
def record() -> list:
    """``update_norm`` of five Byzantine ``ssmw`` rounds on the MNIST CNN, as ``repr``."""
    config = ClusterConfig(
        deployment="ssmw",
        num_workers=8,
        num_byzantine_workers=2,
        num_attacking_workers=2,
        worker_attack="reversed",
        gradient_gar="multi-krum",
        model="mnist_cnn",
        dataset="mnist",
        dataset_size=200,
        batch_size=8,
        executor="serial",
        seed=5,
    )
    with Session(config=config) as session:
        return [repr(session.step().update_norm) for _ in range(ROUNDS)]


def test_training_rounds_reproduce_the_recorded_update_norms():
    assert record() == json.loads(FIXTURE.read_text(encoding="utf-8"))["update_norm"]


class _AddWithoutAt:
    """``np.add`` whose ``at`` raises (a ufunc's own attributes are read-only)."""

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def at(self, *args, **kwargs):
        raise AssertionError("np.add.at called from repro.nn.functional")


class _NumpyWithoutAddAt:
    add = _AddWithoutAt()

    def __getattr__(self, name):
        return getattr(np, name)


def test_cnn_step_never_calls_the_unbuffered_scatter_add(monkeypatch):
    monkeypatch.setattr(F, "np", _NumpyWithoutAddAt())
    model = build_model("mnist_cnn")
    model.train()
    rng = np.random.default_rng(0)
    logits = model(Tensor(rng.normal(size=(4, 1, 28, 28))))
    CrossEntropyLoss()(logits, rng.integers(0, 10, size=4)).backward()
    assert all(np.isfinite(parameter.grad).all() for parameter in model.parameters())


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({"update_norm": record()}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
