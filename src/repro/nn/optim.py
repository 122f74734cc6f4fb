"""Optimizers and learning-rate schedules.

Garfield's update rule is plain SGD (Equation 2 of the paper), optionally with
momentum — the distributed-momentum variance-reduction trick mentioned in the
paper's concluding remarks is exposed through the ``momentum`` argument here.
Adam is included as an extension for the examples.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.layers import Parameter
from repro.nn.parameters import attach_flat_view


class Optimizer:
    """Base optimizer operating on a list of parameters."""

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def apply_flat_gradient(self, flat_gradient: np.ndarray) -> None:
        """Load a flat gradient vector into the ``grad`` slots then ``step()``.

        This is the path the Garfield server uses: it aggregates worker
        gradients into one flat vector and applies it to its model replica.
        The gradient is written through the parameters'
        :class:`~repro.nn.parameters.FlatParameterView` (attached on first
        use) in one vectorized copy; a wrong-size vector raises ``ValueError``.
        """
        attach_flat_view(self.parameters).set_gradients(flat_gradient)
        self.step()


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        # apply_flat_gradient's state: one velocity vector and one scratch
        # buffer over the whole flat parameter vector.
        self._flat_velocity: Optional[np.ndarray] = None
        self._flat_scratch: Optional[np.ndarray] = None

    def apply_flat_gradient(self, flat_gradient: np.ndarray) -> None:
        """Apply one SGD step from a flat gradient vector.

        The whole update is an in-place axpy on the parameters' flat buffer
        (``theta -= lr * g``, plus flat momentum / weight-decay terms) that
        reads the aggregated vector directly — no per-layer scatter, no
        gradient copy.  The element-wise operations match the per-layer
        :meth:`step` loop exactly, so the two are bit-identical.
        """
        view = attach_flat_view(self.parameters)
        grad = view.conform(flat_gradient, "gradient")
        if self.weight_decay:
            grad = grad + self.weight_decay * view.data
        if self.momentum:
            if self._flat_velocity is None:
                self._flat_velocity = np.zeros(view.dimension, dtype=np.float64)
            self._flat_velocity *= self.momentum
            self._flat_velocity += grad
            grad = self._flat_velocity
        if self._flat_scratch is None or self._flat_scratch.size != view.dimension:
            self._flat_scratch = np.empty(view.dimension, dtype=np.float64)
        np.multiply(grad, self.lr, out=self._flat_scratch)
        np.subtract(view.data, self._flat_scratch, out=view.data)

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                if self._velocity[index] is None:
                    self._velocity[index] = np.zeros_like(param.data)
                self._velocity[index] = self.momentum * self._velocity[index] + grad
                grad = self._velocity[index]
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (extension beyond the paper's SGD baseline)."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            self._m[index] = self.beta1 * self._m[index] + (1 - self.beta1) * grad
            self._v[index] = self.beta2 * self._v[index] + (1 - self.beta2) * grad ** 2
            m_hat = self._m[index] / (1 - self.beta1 ** self._step)
            v_hat = self._v[index] / (1 - self.beta2 ** self._step)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class LRScheduler:
    """Base learning-rate schedule wrapping an optimizer."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.iteration = 0

    def step(self) -> float:
        self.iteration += 1
        self.optimizer.lr = self.get_lr()
        return self.optimizer.lr

    def get_lr(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class StepLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` every ``step_size`` iterations."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * (self.gamma ** (self.iteration // self.step_size))
