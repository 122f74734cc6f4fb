"""Reverse-mode automatic differentiation over numpy arrays.

The :class:`Tensor` class is a thin wrapper around ``numpy.ndarray`` that
records the computation graph as operations are applied and can back-propagate
gradients with :meth:`Tensor.backward`.  It supports the operations needed by
the models in :mod:`repro.nn.models`: broadcasting arithmetic, matrix
multiplication, reductions, reshaping, ReLU, log-softmax and the indexing
used by the loss functions.  Under :func:`no_grad` a thread records no graph,
which is how evaluation runs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]


class _GradMode(threading.local):
    #: Whether operations in this thread record the graph; :func:`no_grad` clears it.
    recording = True


_GRAD_MODE = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph in this thread for the scope: results keep no parents.

    Evaluation's forward passes run under it, so the activations a backward
    pass would read are freed as the pass goes.  Other threads (a pool's
    workers taking gradients) keep recording.  Scopes nest; the previous mode
    comes back on exit, also on an exception.
    """
    previous = _GRAD_MODE.recording
    _GRAD_MODE.recording = False
    try:
        yield
    finally:
        _GRAD_MODE.recording = previous


def recording(parents: Sequence["Tensor"]) -> bool:
    """Whether an operation on ``parents`` in this thread records a graph."""
    return _GRAD_MODE.recording and any(p.requires_grad for p in parents)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to invert numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were expanded from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in a dynamic autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    #: An ndarray on the left of ``*``, ``/``, ``+`` or ``-`` defers to the
    #: reflected operator instead of broadcasting over the Tensor as an object.
    __array_ufunc__ = None

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] = lambda grad: None
        self._parents: Tuple["Tensor", ...] = tuple(parents)

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Pickling — used by the process backend's node snapshots
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        """Pickle the value state only, dropping the autograd graph.

        Backward closures capture the dynamic graph of one forward pass and
        cannot cross a process boundary; the graph is rebuilt on the next
        forward pass anyway, so snapshots only need data / grad / flags.
        """
        return (self.data, self.grad, self.requires_grad)

    def __setstate__(self, state) -> None:
        self.data, self.grad, self.requires_grad = state
        self._backward = lambda grad: None
        self._parents = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make_result(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = recording(parents)
        out = Tensor(data, requires_grad=requires, parents=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient.

        ``owned`` says the producer hands over a fresh array that nothing else
        holds: a first gradient is then adopted as it is, and so is an array
        that the dtype cast or the broadcast sum made here.  A shared one (the
        same ``grad`` to both parents of ``+``, a view of ``reshape``'s own
        gradient, ``sum``'s broadcast view) is copied.
        """
        if not self.requires_grad:
            return
        summed = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            # "K" keeps the layout the producer chose (the CNN's batch-innermost
            # activations), so later element-wise products see matching strides;
            # a broadcast view (a zero stride) has no layout worth keeping.
            self.grad = summed if owned or summed is not grad else summed.copy(order="C" if 0 in summed.strides else "K")
        else:
            self.grad += summed

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._make_result(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, owned=True)

        return self._make_result(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._ensure(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data, owned=True)
            if other.requires_grad:
                other._accumulate(grad * self.data, owned=True)

        return self._make_result(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data, owned=True)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2), owned=True)

        return self._make_result(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return self._make_result(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(other.data, -1, -2), owned=True)
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ grad, owned=True)

        return self._make_result(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Reductions and shape manipulation
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            kept = grad if axis is None or keepdims else np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(kept, self.data.shape))

        return self._make_result(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        total = self.sum(axis=axis, keepdims=keepdims)
        # Both sizes are exact, so their quotient is 1.0 / count rounded once.
        return total * (total.data.size / self.data.size)

    def reshape(self, *shape: int) -> "Tensor":
        # ndarray.reshape takes the shape as one tuple or as separate sizes.
        original = self.data.shape
        data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(original))

        return self._make_result(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Non-linearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, owned=True)

        return self._make_result(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Log-softmax (numerically stable, along the last axis)
    # ------------------------------------------------------------------ #
    def log_softmax(self) -> "Tensor":
        shifted = self.data - self.data.max(axis=-1, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        data = shifted - log_sum
        softmax = np.exp(data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad - softmax * grad.sum(axis=-1, keepdims=True), owned=True)

        return self._make_result(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Gather along the last axis (used by the cross-entropy loss)
    # ------------------------------------------------------------------ #
    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select ``self[i, indices[i]]`` for 2-D tensors; returns a 1-D tensor."""
        indices = np.asarray(indices, dtype=np.int64)
        rows = np.arange(self.data.shape[0])
        data = self.data[rows, indices]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            full[rows, indices] = np.asarray(grad, dtype=np.float64)
            self._accumulate(full, owned=True)

        return self._make_result(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        A graph is back-propagated once: a convolution gives its buffers
        back to the arena of :mod:`repro.nn.functional` in its backward, so a
        second call raises ``RuntimeError`` when it reaches one, after the
        nodes before it have added their gradients a second time.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Every node after its parents: a post-order walk with parents in
        # order, on an explicit stack (a graph can outgrow Python's).
        topo: List[Tensor] = []
        visited: Set[int] = set()
        stack = [(self, False)]
        while stack:
            node, finished = stack.pop()
            if finished:
                topo.append(node)
            elif id(node) not in visited:
                visited.add(id(node))
                stack.append((node, True))
                stack.extend((parent, False) for parent in reversed(node._parents))

        self._accumulate(grad)
        for node in reversed(topo):
            if node.grad is not None and node._parents:
                node._backward(node.grad)
