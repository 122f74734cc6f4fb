"""Functional building blocks that are easier to express outside the Tensor class.

This module hosts the 2-D convolution and pooling primitives used by
:mod:`repro.nn.layers`.  Shapes follow the NCHW convention (batch, channels,
height, width), but what :func:`conv2d` and the pools return is a
batch-innermost ``(c, h, w, n)`` array viewed as NCHW, and so are the pools'
input gradients: a stack of convolutions, ReLUs and pools keeps one layout
forward and backward (``Tensor._accumulate`` copies with ``order="K"``).

Convolution is built on two window helpers:

* :func:`_im2col` copies every ``k x k`` window of the (zero-padded) input
  into one column of a ``(c*k*k, out_h*out_w*n)`` matrix.  The windows are
  read through :func:`numpy.lib.stride_tricks.sliding_window_view` — a view,
  no index tables — and written by one strided assignment.
* :func:`_col2im` is its adjoint: it sums such a matrix back onto the pixels
  with ``k*k`` shifted slice-adds.

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
compares bytes; ``docs/performance.md`` sections 6 and 12 have the
measurements.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.tensor import Tensor


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
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
    cols = np.empty((c, kernel, kernel, out_h, out_w, n), dtype=x.dtype)
    cols[...] = windows.transpose(0, 4, 5, 1, 2, 3)
    return cols.reshape(c * kernel * kernel, -1), out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Sum every window of ``cols`` back onto its pixels: the adjoint of :func:`_im2col`."""
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
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
    shape (out_channels,).
    """
    n, c, h, w = x.data.shape
    out_channels, in_channels, kernel, _ = weight.data.shape
    if in_channels != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {in_channels}")

    cols, out_h, out_w = _im2col(x.data, kernel, stride, padding)
    w_flat = weight.data.reshape(out_channels, -1)
    out = w_flat @ cols + bias.data.reshape(-1, 1)
    out = out.reshape(out_channels, out_h, out_w, n).transpose(3, 0, 1, 2)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        grad_flat = grad.transpose(1, 2, 3, 0).reshape(out_channels, -1)
        bias._accumulate(grad_flat.sum(axis=1))
        weight._accumulate((grad_flat @ cols.T).reshape(weight.data.shape))
        if x.requires_grad:
            dcols = w_flat.T @ grad_flat
            x._accumulate(_col2im(dcols, x.data.shape, kernel, stride, padding))

    return x._make_result(out, (x, weight, bias), backward)


def _pool_windows(image: np.ndarray, kernel: int, stride: int) -> List[np.ndarray]:
    """The ``k*k`` strided ``(c, out_h, out_w, n)`` views of a ``(c, h, w, n)`` image, in ascending ``(di, dj)``."""
    rows, cols = (stride * ((size - kernel) // stride + 1) for size in image.shape[1:3])
    return [image[:, di : di + rows : stride, dj : dj + cols : stride] for di in range(kernel) for dj in range(kernel)]


def _pool_backward(x: Tensor, contributions: Iterable[np.ndarray], kernel: int, stride: int) -> None:
    """Add each window offset's gradient into zeros in ascending ``(di, dj)``, the order ``_col2im`` adds in."""
    dx = np.zeros(x.data.shape[1:] + x.data.shape[:1])
    for pixels, contribution in zip(_pool_windows(dx, kernel, stride), contributions):
        pixels += contribution
    x._accumulate(dx.transpose(3, 0, 1, 2))


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
