"""Functional building blocks that are easier to express outside the Tensor class.

This module hosts the 2-D convolution and pooling primitives used by
:mod:`repro.nn.layers`.  Shapes follow the NCHW convention (batch, channels,
height, width), but what :func:`conv2d` and the pools return is a
batch-innermost ``(c, h, w, n)`` array viewed as NCHW, and so are the pools'
input gradients: a stack of convolutions, ReLUs and pools keeps one layout
forward and backward (``Tensor._accumulate`` adopts these fresh gradients as
they are, and copies a shared one with ``order="K"``).

Convolution is built on two window helpers:

* :func:`_im2col` copies every ``k x k`` window of the (zero-padded) input
  into one column of a ``(c*k*k, out_h*out_w*n)`` matrix.  The windows are
  read through :func:`numpy.lib.stride_tricks.sliding_window_view` — a view,
  no index tables — and written by one strided assignment.
* :func:`_col2im` is its adjoint: it sums such a matrix back onto the pixels
  with ``k*k`` shifted slice-adds.

``cols`` comes from a per-thread arena (:func:`_take` / :func:`_give`): a
training step's forward takes it, its backward computes ``dcols`` into the
same buffer and gives it back, so a warm step maps no large block whatever
the allocator's state.  Without a graph (evaluation, under ``no_grad``) a
convolution walks the batch in image blocks, so it holds one block's
``cols``, not the whole test set's.

Pooling uses neither.  It works on the ``k*k`` shifted strided views of the
batch-innermost image (:func:`_pool_windows`), stacked along a leading axis:
max pooling keeps ``argmax``'s rule (the first maximum in row-major ``(di,
dj)`` window order, the first NaN, the earlier of a ``-0.0`` / ``0.0`` tie)
and returns that element's exact bits; average pooling is the mean along the
leading axis.  Both add each window offset's gradient into zeros in ascending
``(di, dj)``.

Two things are frozen, because gradients — and so every golden trace and
benchmark quality number — must not move in the last bit: the layout of
``cols`` (rows ordered ``(channel, di, dj)``, columns ``(out_y, out_x,
image)``), which is an operand of all three GEMMs of a convolution, and the
ascending ``(di, dj)`` order in which overlapping contributions to one pixel
are added.  ``tests/nn/test_window_kernels.py`` holds the index-gather /
unbuffered scatter-add helpers and the ``argmax`` pools these replaced and
compares bytes; ``docs/performance.md`` sections 6, 12 and 14 have the
measurements.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.tensor import Tensor, recording

#: The ``cols`` bytes a block of a convolution without a graph aims at: about
#: a training step's own (2.5 MB for ``mnist_cnn``'s second at batch 8).
BLOCK_BYTES = 5 << 19
#: A block's image count is a multiple of this, and the last block holds at
#: least this many (see :func:`conv2d`).
BLOCK_ALIGN = 8

#: The arena: each thread's free ``cols`` / ``dcols`` buffers, by shape (the
#: attribute dict of a ``threading.local`` is the calling thread's own).  A
#: forward takes its ``cols`` here and its backward gives it back, so no
#: buffer is held by two live graphs, and a thread never keeps more buffers
#: of one shape than it ever had live at once.  Per thread rather than per
#: layer: the models that take turns on a thread share them.
_ARENA = threading.local()


def _take(shape: Tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 buffer of ``shape``: a free one of this thread's, if any."""
    free = vars(_ARENA).get(shape)
    return free.pop() if free else np.empty(shape)


def _give(buffer: np.ndarray) -> None:
    """Hand ``buffer`` back to this thread's arena once nothing reads it."""
    vars(_ARENA).setdefault(buffer.shape, []).append(buffer)


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """The ``(c*k*k, out_h*out_w*n)`` matrix of all windows of ``x``, batch index innermost."""
    n, c, h, w = x.shape
    image = x.transpose(1, 2, 3, 0)
    if padding:
        # Batch-innermost like ``cols``, so the window copy moves whole runs.
        padded = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=x.dtype)
        padded[:, padding : padding + h, padding : padding + w] = image
        image = padded
    # A (c, out_h, out_w, n, k, k) view: nothing is copied before the one
    # strided assignment that lays the windows out as the GEMM operand.
    windows = sliding_window_view(image, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]
    out_h, out_w = windows.shape[1:3]
    cols = _take((c * kernel * kernel, out_h * out_w * n))
    cols.reshape(c, kernel, kernel, out_h, out_w, n)[...] = windows.transpose(0, 4, 5, 1, 2, 3)
    return cols


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    out_shape: Tuple[int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Sum every window of ``cols`` back onto its pixels: the adjoint of :func:`_im2col`.

    ``out_shape`` is the ``(out_h, out_w)`` grid of windows that ``cols`` holds.
    """
    n, c, h, w = x_shape
    out_h, out_w = out_shape
    image = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=cols.dtype)
    blocks = cols.reshape(c, kernel, kernel, out_h, out_w, n)
    # One shifted slice-add per window offset, in ascending (di, dj): the order
    # in which a pixel's overlapping contributions have always been summed.
    for di in range(kernel):
        rows = slice(di, di + stride * out_h, stride)
        for dj in range(kernel):
            image[:, rows, dj : dj + stride * out_w : stride] += blocks[:, di, dj]
    return image[:, padding : padding + h, padding : padding + w].transpose(3, 0, 1, 2)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over NCHW input with square kernels.

    ``weight`` has shape (out_channels, in_channels, k, k) and ``bias`` has
    shape (out_channels,).  Without a graph the batch goes through in blocks
    of images whose ``cols`` fit ``BLOCK_BYTES``; a graph keeps one block,
    because backward reads all of ``cols`` and splitting the weight-gradient
    GEMM would re-associate its sum.  Each output element is the same K-sum
    over the same operands either way, and BLAS adds it up the same way as
    long as the columns keep their micro-kernel: OpenBLAS computes the
    trailing columns past a GEMM's last full group of eight with another
    kernel, whose sums can differ in the last bit.  So every block but the
    last spans whole groups of ``BLOCK_ALIGN`` images (whole groups of eight
    columns, whatever the image size), and the last holds at least
    ``BLOCK_ALIGN``: the batch's trailing columns are its trailing columns.
    """
    n, c, h, w = x.data.shape
    out_channels, in_channels, kernel, _ = weight.data.shape
    if in_channels != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {in_channels}")
    out_h, out_w = ((size + 2 * padding - kernel) // stride + 1 for size in (h, w))
    records = recording((x, weight, bias))
    groups = BLOCK_BYTES // (8 * c * kernel * kernel * out_h * out_w) // BLOCK_ALIGN
    block = max(1, n) if records else max(1, groups) * BLOCK_ALIGN
    starts = list(range(0, max(n - BLOCK_ALIGN, 0) + 1, block))

    w_flat = weight.data.reshape(out_channels, -1)
    out = np.empty((out_channels, out_h, out_w, n))
    for start, stop in zip(starts, starts[1:] + [n]):
        cols = _im2col(x.data[start:stop], kernel, stride, padding)
        product = (w_flat @ cols).reshape(out_channels, out_h, out_w, -1)
        np.add(product, bias.data.reshape(-1, 1, 1, 1), out=out[..., start:stop])
        if not records:
            _give(cols)

    def backward(grad: np.ndarray) -> None:
        nonlocal cols
        if cols is None:
            raise RuntimeError("conv2d: second backward through one graph; its cols went back to the arena")
        grad_flat = grad.transpose(1, 2, 3, 0).reshape(out_channels, -1)
        weight._accumulate((grad_flat @ cols.T).reshape(weight.data.shape), owned=True)
        bias._accumulate(grad_flat.sum(axis=1), owned=True)
        if x.requires_grad:
            # ``cols`` has been read for the last time: ``dcols`` takes its buffer.
            dcols = np.matmul(w_flat.T, grad_flat, out=cols)
            x._accumulate(_col2im(dcols, x.data.shape, (out_h, out_w), kernel, stride, padding), owned=True)
        _give(cols)
        cols = None

    return x._make_result(out.transpose(3, 0, 1, 2), (x, weight, bias), backward)


def _pool_windows(image: np.ndarray, kernel: int, stride: int) -> List[np.ndarray]:
    """The ``k*k`` strided ``(c, out_h, out_w, n)`` views of a ``(c, h, w, n)`` image, in ascending ``(di, dj)``."""
    rows, cols = (stride * ((size - kernel) // stride + 1) for size in image.shape[1:3])
    return [image[:, di : di + rows : stride, dj : dj + cols : stride] for di in range(kernel) for dj in range(kernel)]


def _pool_backward(x: Tensor, contributions: Iterable[np.ndarray], kernel: int, stride: int) -> None:
    """Add each window offset's gradient into zeros in ascending ``(di, dj)``, the order ``_col2im`` adds in."""
    dx = np.zeros(x.data.shape[1:] + x.data.shape[:1])
    for pixels, contribution in zip(_pool_windows(dx, kernel, stride), contributions):
        pixels += contribution
    x._accumulate(dx.transpose(3, 0, 1, 2), owned=True)


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW input with square windows; ties go to the first maximum in window order."""
    stride = stride or kernel
    stack = np.stack(_pool_windows(x.data.transpose(1, 2, 3, 0), kernel, stride))
    peak = np.maximum.reduce(stack)
    # argmax's rule: the first element >= the peak, or the first NaN (a NaN
    # peak is >= to nothing).  ``hit`` becomes "first hit in (di, dj) order".
    hit = stack >= peak
    if np.isnan(peak).any():
        hit |= np.isnan(stack)
    seen = hit[0].copy()
    for later in hit[1:]:
        np.greater(later, seen, out=later)
        seen |= later
    # All-ones / all-zeros words select the chosen element's exact bits (its
    # zero's sign, its NaN); a 0/1 product would turn an unchosen inf into NaN.
    select = np.negative(hit.view(np.int8)).astype(np.int64)
    chosen = stack.view(np.int64)
    chosen &= select
    out = np.bitwise_or.reduce(chosen).view(np.float64)

    def backward(grad: np.ndarray) -> None:
        bits = np.asarray(grad, dtype=np.float64).transpose(1, 2, 3, 0).view(np.int64)
        _pool_backward(x, ((bits & row).view(np.float64) for row in select), kernel, stride)

    return x._make_result(out.transpose(3, 0, 1, 2), (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW input with square windows."""
    stride = stride or kernel
    # A mean along the stacked axis adds the windows in (di, dj) order.
    out = np.stack(_pool_windows(x.data.transpose(1, 2, 3, 0), kernel, stride)).mean(axis=0)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64).transpose(1, 2, 3, 0) / (kernel * kernel)
        _pool_backward(x, [grad] * (kernel * kernel), kernel, stride)

    return x._make_result(out.transpose(3, 0, 1, 2), (x,), backward)
