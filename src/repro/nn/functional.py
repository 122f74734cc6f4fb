"""Functional building blocks that are easier to express outside the Tensor class.

This module hosts the 2-D convolution and pooling primitives used by
:mod:`repro.nn.layers`.  Shapes follow the NCHW convention (batch, channels,
height, width).

All three are built on two window helpers:

* :func:`_im2col` copies every ``k x k`` window of the (zero-padded) input
  into one column of a ``(c*k*k, out_h*out_w*n)`` matrix.  The windows are
  read through :func:`numpy.lib.stride_tricks.sliding_window_view` — a view,
  no index tables — and written by one strided assignment.
* :func:`_col2im` is its adjoint: it sums such a matrix back onto the pixels
  with ``k*k`` shifted slice-adds.

Two things about them are frozen, because gradients — and so every golden
trace and benchmark quality number — must not move in the last bit: the
layout of ``cols`` (rows ordered ``(channel, di, dj)``, columns ``(out_y,
out_x, image)``), which is an operand of all three GEMMs of a convolution, and
the ascending ``(di, dj)`` order in which :func:`_col2im` adds the overlapping
contributions to one pixel.  ``tests/nn/test_window_kernels.py`` holds the
index-gather / unbuffered scatter-add implementation these replaced and requires
``np.array_equal``; ``docs/performance.md`` section 6 has the measurements.
"""

from __future__ import annotations

from typing import Tuple

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


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW input with square windows."""
    stride = stride or kernel
    n, c, h, w = x.data.shape
    reshaped = x.data.reshape(n * c, 1, h, w)
    cols, out_h, out_w = _im2col(reshaped, kernel, stride, 0)
    argmax = cols.argmax(axis=0)
    out = cols[argmax, np.arange(cols.shape[1])]
    out = out.reshape(out_h, out_w, n * c).transpose(2, 0, 1).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        grad_flat = grad.reshape(n * c, out_h, out_w).transpose(1, 2, 0).reshape(-1)
        dcols = np.zeros_like(cols)
        dcols[argmax, np.arange(cols.shape[1])] = grad_flat
        dx = _col2im(dcols, reshaped.shape, kernel, stride, 0)
        x._accumulate(dx.reshape(x.data.shape))

    return x._make_result(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW input with square windows."""
    stride = stride or kernel
    n, c, h, w = x.data.shape
    reshaped = x.data.reshape(n * c, 1, h, w)
    cols, out_h, out_w = _im2col(reshaped, kernel, stride, 0)
    out = cols.mean(axis=0)
    out = out.reshape(out_h, out_w, n * c).transpose(2, 0, 1).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        grad_flat = grad.reshape(n * c, out_h, out_w).transpose(1, 2, 0).reshape(-1)
        dcols = np.broadcast_to(grad_flat / (kernel * kernel), cols.shape).copy()
        dx = _col2im(dcols, reshaped.shape, kernel, stride, 0)
        x._accumulate(dx.reshape(x.data.shape))

    return x._make_result(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions, returning an (N, C) tensor."""
    return x.mean(axis=(2, 3))
