"""Model zoo mirroring the Experiment module of Garfield (Figure 1, Table 1).

The paper evaluates six models (MNIST_CNN, CifarNet, Inception, ResNet-50,
ResNet-200 / ResNet-152 and VGG).  Training multi-hundred-megabyte models is
out of reach for a pure-numpy substrate, so this module provides two views of
the zoo:

* **Trainable classes** (``MnistCnn``, ``CifarNet``, ``InceptionLite``,
  ``ResNetLite``, ``VggLite``, ``LogisticRegression``) — faithful but scaled
  down architectures that can actually be trained end-to-end in the
  simulation.  They exercise the exact same code paths (convolutions, skip
  connections, inception branches) as their full-size counterparts.

* **``PAPER_MODEL_DIMENSIONS``** — the exact parameter counts reported in
  Table 1 of the paper.  The network / aggregation cost models use these
  values when reproducing throughput figures, because throughput in the paper
  depends only on the model dimension ``d``, not on the concrete weights.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor

#: Parameter counts from Table 1 of the paper.
PAPER_MODEL_DIMENSIONS: Dict[str, int] = {
    "mnist_cnn": 79_510,
    "cifarnet": 1_756_426,
    "inception": 5_602_874,
    "resnet50": 23_539_850,
    "resnet152": 58_295_818,
    "resnet200": 62_697_610,
    "vgg": 128_807_306,
}

#: Approximate compute intensity — forward+backward FLOPs per parameter per
#: example — of each model when trained on 32x32 (CIFAR-10-sized) inputs.
#: Convolutional models with heavy weight sharing (MNIST_CNN, CifarNet,
#: Inception) perform many FLOPs per parameter; models dominated by large
#: dense layers or very deep residual stacks (VGG, ResNets) perform few.
#: These ratios are what make communication — which always scales with the
#: full parameter count — dominate the cost of the bigger models (Figure 6).
MODEL_COMPUTE_INTENSITY: Dict[str, float] = {
    "mnist_cnn": 60.0,
    "cifarnet": 20.0,
    "inception": 18.0,
    "resnet50": 8.0,
    "resnet152": 8.0,
    "resnet200": 8.0,
    "vgg": 3.0,
}

#: Size in MB from Table 1 (float32 weights).
PAPER_MODEL_SIZES_MB: Dict[str, float] = {
    "mnist_cnn": 0.3,
    "cifarnet": 6.7,
    "inception": 21.4,
    "resnet50": 89.8,
    "resnet152": 222.4,
    "resnet200": 239.2,
    "vgg": 491.4,
}


class LogisticRegression(Module):
    """Multinomial logistic regression — the smallest model, handy for tests."""

    def __init__(self, input_dim: int = 64, num_classes: int = 10, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.flatten = Flatten()
        self.linear = Linear(input_dim, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.linear(self.flatten(x))


class MnistCnn(Module):
    """Small convolutional network for 28x28x1 inputs (paper's MNIST_CNN)."""

    def __init__(self, num_classes: int = 10, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.features = Sequential(
            Conv2d(1, 8, kernel_size=5, padding=2, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(8, 16, kernel_size=5, padding=2, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
        )
        self.classifier = Sequential(
            Linear(16 * 7 * 7, 64, rng=rng),
            ReLU(),
            Linear(64, num_classes, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(x))


class CifarNet(Module):
    """CifarNet-style CNN for 32x32x3 inputs."""

    def __init__(self, num_classes: int = 10, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.features = Sequential(
            Conv2d(3, 16, kernel_size=5, padding=2, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(16, 32, kernel_size=5, padding=2, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
        )
        self.classifier = Sequential(
            Linear(32 * 8 * 8, 128, rng=rng),
            ReLU(),
            Dropout(0.25, rng=rng),
            Linear(128, num_classes, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(x))


class _InceptionBlock(Module):
    """Simplified inception block: parallel 1x1 and 3x3 branches, concatenated."""

    def __init__(self, in_channels: int, branch_channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.branch1 = Conv2d(in_channels, branch_channels, kernel_size=1, rng=rng)
        self.branch3 = Conv2d(in_channels, branch_channels, kernel_size=3, padding=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out1 = self.branch1(x).relu()
        out3 = self.branch3(x).relu()
        data = np.concatenate([out1.data, out3.data], axis=1)
        # Concatenation along the channel axis with gradient routing to each branch.
        split = out1.data.shape[1]

        def backward(grad: np.ndarray) -> None:
            out1._accumulate(grad[:, :split])
            out3._accumulate(grad[:, split:])

        return out1._make_result(data, (out1, out3), backward)


class InceptionLite(Module):
    """Scaled-down Inception: stem conv + two inception blocks + classifier."""

    def __init__(self, num_classes: int = 10, in_channels: int = 3, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.stem = Conv2d(in_channels, 8, kernel_size=3, padding=1, rng=rng)
        self.block1 = _InceptionBlock(8, 8, rng)
        self.pool1 = MaxPool2d(2)
        self.block2 = _InceptionBlock(16, 16, rng)
        self.pool2 = MaxPool2d(2)
        self.flatten = Flatten()
        self.classifier = Linear(32 * 8 * 8, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x).relu()
        x = self.pool1(self.block1(x))
        x = self.pool2(self.block2(x))
        return self.classifier(self.flatten(x))


class _ResidualBlock(Module):
    """Two 3x3 convolutions with an identity skip connection."""

    def __init__(self, channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.conv1 = Conv2d(channels, channels, kernel_size=3, padding=1, rng=rng)
        self.conv2 = Conv2d(channels, channels, kernel_size=3, padding=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = self.conv2(self.conv1(x).relu())
        return (out + x).relu()


class ResNetLite(Module):
    """Scaled-down residual network (stem + ``num_blocks`` residual blocks)."""

    def __init__(self, num_classes: int = 10, in_channels: int = 3, num_blocks: int = 2, seed: int = 0) -> None:
        super().__init__()
        if num_blocks < 1:
            raise ConfigurationError("ResNetLite requires at least one residual block")
        rng = np.random.default_rng(seed)
        self.stem = Conv2d(in_channels, 16, kernel_size=3, padding=1, rng=rng)
        self.blocks = Sequential(*[_ResidualBlock(16, rng) for _ in range(num_blocks)])
        self.pool = AvgPool2d(4)
        self.flatten = Flatten()
        self.classifier = Linear(16 * 8 * 8, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x).relu()
        x = self.blocks(x)
        x = self.pool(x)
        return self.classifier(self.flatten(x))


class VggLite(Module):
    """Scaled-down VGG: stacked 3x3 convolutions with large dense head."""

    def __init__(self, num_classes: int = 10, in_channels: int = 3, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.features = Sequential(
            Conv2d(in_channels, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2d(16, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(16, 32, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
        )
        self.classifier = Sequential(
            Linear(32 * 8 * 8, 256, rng=rng),
            ReLU(),
            Dropout(0.5, rng=rng),
            Linear(256, num_classes, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(x))


MODEL_REGISTRY: Dict[str, Callable[..., Module]] = {
    "logistic": LogisticRegression,
    "mnist_cnn": MnistCnn,
    "cifarnet": CifarNet,
    "inception": InceptionLite,
    "resnet50": ResNetLite,
    "resnet152": ResNetLite,
    "resnet200": ResNetLite,
    "vgg": VggLite,
}


def build_model(name: str, **kwargs) -> Module:
    """Instantiate a trainable model by (paper) name.

    ``resnet50`` / ``resnet152`` / ``resnet200`` map to :class:`ResNetLite`
    with increasing block counts so their relative compute ordering matches
    the paper's.
    """
    key = name.lower()
    if key not in MODEL_REGISTRY:
        raise ConfigurationError(f"unknown model '{name}'; choose from {sorted(MODEL_REGISTRY)}")
    if key == "resnet152":
        kwargs.setdefault("num_blocks", 3)
    if key == "resnet200":
        kwargs.setdefault("num_blocks", 4)
    return MODEL_REGISTRY[key](**kwargs)


def model_dimension(name: str, model: Optional[Module] = None) -> int:
    """Dimension ``d`` of the model's flat parameter vector.

    When ``model`` is supplied, the live parameter count is returned;
    otherwise the paper's Table 1 value is used (for the analytic cost model).
    """
    if model is not None:
        return model.num_parameters()
    key = name.lower()
    if key not in PAPER_MODEL_DIMENSIONS:
        raise ConfigurationError(f"unknown model '{name}'; choose from {sorted(PAPER_MODEL_DIMENSIONS)}")
    return PAPER_MODEL_DIMENSIONS[key]


def model_size_mb(name: str, model: Optional[Module] = None, bytes_per_parameter: int = 4) -> float:
    """Model size in megabytes, assuming float32 weights as in Table 1."""
    return model_dimension(name, model) * bytes_per_parameter / 1e6


def model_compute_intensity(name: str, default: float = 6.0) -> float:
    """Forward+backward FLOPs per parameter per example for the named model.

    Returns ``default`` for models not in the registry (e.g. when the caller
    overrides the dimension directly).
    """
    return MODEL_COMPUTE_INTENSITY.get(name.lower(), default)
