"""Reverse-mode automatic differentiation over numpy arrays.

The :class:`Tensor` class is a thin wrapper around ``numpy.ndarray`` that
records the computation graph as operations are applied and can back-propagate
gradients with :meth:`Tensor.backward`.  It supports the operations needed by
the models in :mod:`repro.nn.models`: broadcasting arithmetic, matrix
multiplication, reductions, reshaping, ReLU, log-softmax and the indexing
used by the loss functions.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]


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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] = lambda grad: None
        self._parents: Tuple["Tensor", ...] = tuple(parents)
        self.name = name

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

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

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
        return (self.data, self.grad, self.requires_grad, self.name)

    def __setstate__(self, state) -> None:
        self.data, self.grad, self.requires_grad, self.name = state
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
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, parents=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

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
            self._accumulate(-grad)

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
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make_result(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return self._make_result(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_result(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return self._make_result(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Reductions and shape manipulation
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad, dtype=np.float64)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make_result(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(original))

        return self._make_result(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes_t)
        inverse = tuple(np.argsort(axes_t))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).transpose(inverse))

        return self._make_result(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Non-linearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

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
            grad = np.asarray(grad, dtype=np.float64)
            self._accumulate(grad - softmax * grad.sum(axis=-1, keepdims=True))

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
            self._accumulate(full)

        return self._make_result(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        topo: List[Tensor] = []
        visited: Set[int] = set()

        def build(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            seen_on_stack = {id(node)}
            while stack:
                current, it = stack[-1]
                advanced = False
                for parent in it:
                    if id(parent) not in visited and id(parent) not in seen_on_stack:
                        stack.append((parent, iter(parent._parents)))
                        seen_on_stack.add(id(parent))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    seen_on_stack.discard(id(current))
                    if id(current) not in visited:
                        visited.add(id(current))
                        topo.append(current)

        build(self)

        self._accumulate(grad)
        for node in reversed(topo):
            if node.grad is not None and node._parents:
                node._backward(node.grad)
