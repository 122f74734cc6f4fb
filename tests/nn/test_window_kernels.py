"""The strided-window kernels against the index-gather ones they replaced.

``repro.nn.functional`` builds convolution on two helpers, ``_im2col`` and
``_col2im``, and pooling on strided views of the batch-innermost image.  The
helpers used to gather through index tables and scatter with ``np.add.at``,
and the pools used to run through them with an ``argmax`` over the window
rows.  Training traces, goldens and benchmark quality numbers all depend on
old and new being the *same function to the last bit*, so:

* the old helpers and the old pools live on **here** as the reference, and
  every output and gradient of ``conv2d`` / ``max_pool2d`` / ``avg_pool2d``
  is compared by ``tobytes()`` (which, unlike ``np.array_equal``, tells
  ``-0.0`` from ``0.0`` and matches a NaN with itself) over a grid of kernels,
  strides and paddings on sizes the window does not tile, and the pools also
  over inputs full of NaN, infinities and mixed-sign zero ties;
* ``window_kernels_fixture.json`` holds the ``update_norm`` of five ``ssmw`` /
  ``mnist_cnn`` rounds recorded with the old helpers (floats as ``repr``), and
  the OpenBLAS thread count they were recorded under: GEMM blocks its sums by
  thread count, so the last bits of the norms depend on it, and the rounds
  are replayed in a child interpreter pinned to that count.  Run this file
  as a script to regenerate it — against the old source, and only when the
  arithmetic itself is meant to change;
* guards run one ``mnist_cnn`` step with ``np.add.at`` made to raise, and
  count the step's ``_im2col`` / ``_col2im`` calls: the convolutions' only.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
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
    k, i, j, _, _ = _reference_indices(x.shape, kernel, stride, padding)
    return padded[:, k, i, j].transpose(1, 2, 0).reshape(c * kernel * kernel, -1)


def reference_col2im(cols, x_shape, out_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    k, i, j, _, _ = _reference_indices(x_shape, kernel, stride, padding)
    np.add.at(padded, (slice(None), k, i, j), cols.reshape(c * kernel * kernel, -1, n).transpose(2, 0, 1))
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def reference_max_pool2d(x, kernel=2, stride=None):
    stride = stride or kernel
    n, c, h, w = x.data.shape
    reshaped = x.data.reshape(n * c, 1, h, w)
    cols = reference_im2col(reshaped, kernel, stride, 0)
    out_h, out_w = _reference_indices(reshaped.shape, kernel, stride, 0)[3:]
    argmax = cols.argmax(axis=0)
    out = cols[argmax, np.arange(cols.shape[1])]
    out = out.reshape(out_h, out_w, n * c).transpose(2, 0, 1).reshape(n, c, out_h, out_w)

    def backward(grad):
        grad = np.asarray(grad, dtype=np.float64)
        grad_flat = grad.reshape(n * c, out_h, out_w).transpose(1, 2, 0).reshape(-1)
        dcols = np.zeros_like(cols)
        dcols[argmax, np.arange(cols.shape[1])] = grad_flat
        dx = reference_col2im(dcols, reshaped.shape, (out_h, out_w), kernel, stride, 0)
        x._accumulate(dx.reshape(x.data.shape))

    return x._make_result(out, (x,), backward)


def reference_avg_pool2d(x, kernel=2, stride=None):
    stride = stride or kernel
    n, c, h, w = x.data.shape
    reshaped = x.data.reshape(n * c, 1, h, w)
    cols = reference_im2col(reshaped, kernel, stride, 0)
    out_h, out_w = _reference_indices(reshaped.shape, kernel, stride, 0)[3:]
    out = cols.mean(axis=0)
    out = out.reshape(out_h, out_w, n * c).transpose(2, 0, 1).reshape(n, c, out_h, out_w)

    def backward(grad):
        grad = np.asarray(grad, dtype=np.float64)
        grad_flat = grad.reshape(n * c, out_h, out_w).transpose(1, 2, 0).reshape(-1)
        dcols = np.broadcast_to(grad_flat / (kernel * kernel), cols.shape).copy()
        dx = reference_col2im(dcols, reshaped.shape, (out_h, out_w), kernel, stride, 0)
        x._accumulate(dx.reshape(x.data.shape))

    return x._make_result(out, (x,), backward)


def both(run):
    """``run()`` with the shipped kernels and again with the reference ones."""
    shipped = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(F, "_im2col", reference_im2col)
        patch.setattr(F, "_col2im", reference_col2im)
        patch.setattr(F, "max_pool2d", reference_max_pool2d)
        patch.setattr(F, "avg_pool2d", reference_avg_pool2d)
        return shipped, run()


def assert_identical(shipped, reference):
    assert len(shipped) == len(reference)
    for got, want in zip(shipped, reference):
        if want is None:
            assert got is None
        else:
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()


def batch_innermost(value):
    """``value`` laid out as ``conv2d`` leaves its output: ``(c, h, w, n)`` in memory."""
    return value.transpose(1, 2, 3, 0).copy().transpose(3, 0, 1, 2)


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


#: Values the extended grid draws from: every IEEE special a pool can meet.
SPECIALS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.0])


def pool_inputs(kernel, stride, size):
    rng = np.random.default_rng(kernel * 10 + stride)
    # Rounded to integers: most windows hold their maximum more than once.
    yield rng.normal(scale=2.0, size=(3, 2) + size).round(), rng.normal(size=(3, 2, 40, 40))
    # Windows full of NaN, infinities and ties between 0.0 and -0.0.  The
    # upstream gradient stays finite: where two NaNs meet in a sum, which
    # sign survives depends on the operand order inside NumPy's loop, and
    # there ``np.add.at`` and a slice-add already disagreed with each other.
    yield rng.choice(SPECIALS, size=(3, 2) + size), rng.normal(size=(3, 2, 40, 40))
    # Positive values among 0.0 / -0.0 ties, in the layout ``conv2d`` leaves.
    signed = rng.normal(size=(3, 2) + size)
    zeros = rng.choice([0.0, -0.0], size=signed.shape)
    yield batch_innermost(np.where(signed > 0, signed, zeros)), rng.normal(size=(3, 2, 40, 40))


@pytest.mark.parametrize("pool", ["max_pool2d", "avg_pool2d"])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kernel,stride", itertools.product((1, 2, 3, 5), (1, 2, 3)))
def test_pooling_is_bit_identical_to_the_index_gather(kernel, stride, size, pool):
    for x_val, upstream in pool_inputs(kernel, stride, size):

        def run():
            x = Tensor(x_val.copy(order="K"), requires_grad=True)
            out = getattr(F, pool)(x, kernel, stride)
            out.backward(upstream[:, :, : out.shape[2], : out.shape[3]])
            if pool == "avg_pool2d":
                # IEEE 754 leaves the sign of a NaN sum open, and NumPy's
                # answer for NaN + -NaN depends on the element's SIMD lane,
                # which the reordered columns move: compare NaNs as one NaN.
                return np.where(np.isnan(out.data), np.nan, out.data), x.grad
            return out.data, x.grad

        with np.errstate(invalid="ignore"):  # inf + -inf in a window's mean
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


def record_pinned(blas_threads: int) -> list:
    """:func:`record` in a child interpreter whose OpenBLAS runs ``blas_threads`` threads.

    The count is read once, when OpenBLAS loads, so it cannot be changed in
    a process that already imported NumPy.
    """
    src = str(Path(__file__).resolve().parents[2] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(blas_threads),
        PYTHONPATH=src + (os.pathsep + path if path else ""),
    )
    done = subprocess.run(
        [sys.executable, __file__, "--print"], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_training_rounds_reproduce_the_recorded_update_norms():
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert record_pinned(fixture["blas_threads"]) == fixture["update_norm"]


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


def test_cnn_step_windows_only_its_convolutions(monkeypatch):
    calls = {"_im2col": 0, "_col2im": 0}
    for name in calls:

        def counted(*args, name=name, kernel=getattr(F, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(F, name, counted)
    model = build_model("mnist_cnn")
    model.train()
    rng = np.random.default_rng(0)
    logits = model(Tensor(rng.normal(size=(4, 1, 28, 28))))
    CrossEntropyLoss()(logits, rng.integers(0, 10, size=4)).backward()
    # One ``_im2col`` per convolution, one ``_col2im`` for the second one's
    # input (the image needs no gradient); the pools call neither.
    assert calls == {"_im2col": 2, "_col2im": 1}


def test_cnn_step_never_calls_the_unbuffered_scatter_add(monkeypatch):
    monkeypatch.setattr(F, "np", _NumpyWithoutAddAt())
    model = build_model("mnist_cnn")
    model.train()
    rng = np.random.default_rng(0)
    logits = model(Tensor(rng.normal(size=(4, 1, 28, 28))))
    CrossEntropyLoss()(logits, rng.integers(0, 10, size=4)).backward()
    assert all(np.isfinite(parameter.grad).all() for parameter in model.parameters())


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(record()))
    else:
        threads = 2
        fixture = {"blas_threads": threads, "update_norm": record_pinned(threads)}
        FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {FIXTURE}")
