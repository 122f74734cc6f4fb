"""Optimizers.

Garfield's update rule is plain SGD (Equation 2 of the paper), optionally with
momentum — the distributed-momentum variance-reduction trick mentioned in the
paper's concluding remarks is exposed through the ``momentum`` argument here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.layers import Parameter
from repro.nn.parameters import attach_flat_view


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        self.lr = lr
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
