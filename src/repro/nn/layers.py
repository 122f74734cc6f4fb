"""Neural-network layers built on the :class:`~repro.nn.tensor.Tensor` autograd engine.

The :class:`Module` base class mirrors the familiar PyTorch interface that the
Garfield Server / Worker objects rely on: ``parameters()``, ``zero_grad()``,
``train()`` / ``eval()`` and ``__call__``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable model parameter.

    Once a :class:`~repro.nn.parameters.FlatParameterView` is attached,
    ``data`` and ``grad`` are views into its contiguous flat buffers;
    ``_flat_grad`` / ``_flat_view`` (set by the view at attach time, dropped
    by pickling along with the aliasing) keep :meth:`zero_grad` from severing
    that binding.
    """

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(data, requires_grad=True)

    def zero_grad(self) -> None:
        flat_grad = getattr(self, "_flat_grad", None)
        if flat_grad is not None:
            # Keep the gradient bound to the flat buffer: zero in place so the
            # autograd accumulation (`grad += piece`) writes through the view.
            flat_grad.fill(0.0)
            self.grad = flat_grad
        else:
            self.grad = None


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` instances and child ``Module``
    instances as attributes; ``parameters()`` discovers them recursively in a
    deterministic (attribute insertion) order, which is what makes flat
    parameter / gradient vectors consistent across nodes in the cluster.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), in_features, out_features, rng))
        self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class Conv2d(Module):
    """2-D convolution with square kernels over NCHW input."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(init.he_normal((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng))
        self.bias = Parameter(init.zeros((out_channels,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self.rng.random(x.data.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class _Pool2d(Module):
    """Square-window pooling's hyper-parameters; a subclass's ``forward`` calls its kernel."""

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride


class MaxPool2d(_Pool2d):
    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(_Pool2d):
    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)
        for index, module in enumerate(modules):
            setattr(self, f"layer_{index}", module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.layers:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)
