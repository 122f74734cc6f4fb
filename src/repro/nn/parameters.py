"""The model state as one flat vector: :class:`FlatParameterView`.

Garfield's GARs operate on flat vectors in R^d (gradients or models), and the
read/write-parameter-vector box in Figure 1 of the paper is the only way a
server or worker touches a model's parameters as a whole.  Here that vector
*is* the storage: attaching a view to a parameter list rebinds every
``Parameter``'s ``data`` and ``grad`` to slices of one contiguous float64
buffer each, so :meth:`~FlatParameterView.parameter_vector` and
:meth:`~FlatParameterView.gradient_vector` are O(1) read-only views,
:meth:`~FlatParameterView.set_parameters` /
:meth:`~FlatParameterView.set_gradients` are one vectorized assignment, and
the SGD update is an in-place axpy on the whole buffer (see
:meth:`repro.nn.optim.SGD.apply_flat_gradient`).

There is no second, per-layer way to read or write the vector.  Every
consumer asks :func:`attach_flat_view` for the view at the point of use; the
call is idempotent and, when the aliasing was severed (numpy views pickle as
independent copies, so a process-backend snapshot restores bare arrays),
rebuilds the buffers from the parameters' current values.  Everything a view
returns is *read-only* — consumers that need to mutate must copy
(``docs/performance.md`` documents the ownership rules).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.layers import Parameter


class FlatParameterView:
    """One contiguous float64 buffer backing every parameter of a model.

    Construction copies the parameters' current values (and gradients) into
    two freshly allocated flat vectors — ``data`` and ``grad`` — and rebinds
    each ``Parameter``'s ``data`` / ``grad`` to reshaped slices of them.
    From then on forward passes, backward accumulation and in-place
    optimizer steps all operate directly on the shared buffers, so reading
    the model or its gradient as one flat vector never copies again.

    The per-parameter views are C-contiguous (each is a reshaped slice of a
    contiguous 1-D buffer), so layer numerics are bit-identical to the
    unattached layout.
    """

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.dimension = sum(p.size for p in parameters)
        self.data = np.empty(self.dimension, dtype=np.float64)
        self.grad = np.zeros(self.dimension, dtype=np.float64)
        self._data_ro = self.data.view()
        self._data_ro.setflags(write=False)
        self._grad_ro = self.grad.view()
        self._grad_ro.setflags(write=False)
        self._slots: List[Tuple[Parameter, np.ndarray, np.ndarray]] = []
        offset = 0
        for param in parameters:
            size = param.size
            shape = param.data.shape
            data_view = self.data[offset : offset + size].reshape(shape)
            grad_view = self.grad[offset : offset + size].reshape(shape)
            data_view[...] = param.data
            if param.grad is not None:
                grad_view[...] = param.grad
            param.data = data_view
            param.grad = grad_view
            param._flat_grad = grad_view
            param._flat_view = self
            self._slots.append((param, data_view, grad_view))
            offset += size

    def covers(self, parameters: Sequence[Parameter]) -> bool:
        """Whether ``parameters`` is exactly this view's list, every one still aliasing it."""
        return len(parameters) == len(self._slots) and all(
            param is bound and param.data is data_view and param.grad is grad_view
            for param, (bound, data_view, grad_view) in zip(parameters, self._slots)
        )

    # ------------------------------------------------------------------ #
    # Zero-copy accessors (read-only)
    # ------------------------------------------------------------------ #
    def parameter_vector(self) -> np.ndarray:
        """The model state as one flat vector — a read-only view, no copy."""
        return self._data_ro

    def gradient_vector(self) -> np.ndarray:
        """The gradient as one flat vector — a read-only view, no copy."""
        return self._grad_ro

    # ------------------------------------------------------------------ #
    # Vectorized writers
    # ------------------------------------------------------------------ #
    def conform(self, flat: np.ndarray, what: str) -> np.ndarray:
        """``flat`` as a 1-D float64 vector of this view's dimension, or ``ValueError``."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.dimension:
            raise ValueError(
                f"cannot load a {what} vector of size {flat.size} into a model "
                f"of dimension {self.dimension}"
            )
        return flat.reshape(-1)

    def set_parameters(self, flat: np.ndarray) -> None:
        """Overwrite the model state from one flat vector (one vectorized copy)."""
        self.data[...] = self.conform(flat, "parameter")

    def set_gradients(self, flat: np.ndarray) -> None:
        """Load a flat gradient vector into the shared gradient buffer."""
        self.grad[...] = self.conform(flat, "gradient")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatParameterView(dimension={self.dimension}, parameters={len(self._slots)})"


def attach_flat_view(parameters: Sequence[Parameter]) -> FlatParameterView:
    """The :class:`FlatParameterView` backing ``parameters``, built if need be.

    Idempotent: a view that still covers exactly these parameters is returned
    unchanged.  Otherwise (never attached, or a pickle round trip severed the
    aliasing) a fresh one is built from the parameters' current values, so
    re-attaching after a process-backend snapshot/respawn continues
    bit-identically.
    """
    view = getattr(parameters[0], "_flat_view", None) if parameters else None
    if view is None or not view.covers(parameters):
        view = FlatParameterView(parameters)
    return view
