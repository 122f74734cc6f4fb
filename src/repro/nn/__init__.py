"""``repro.nn`` — a from-scratch numpy neural-network substrate.

This subpackage plays the role that TensorFlow and PyTorch play in the
original Garfield paper: it provides tensors with reverse-mode automatic
differentiation, common layers, the models used in the paper's evaluation
(Table 1), losses and SGD optimizers.  Garfield's Server / Worker objects
only ever interact with it through ``Module.parameters()``, the flat
parameter / gradient vector (:class:`FlatParameterView`) and the optimizer —
exactly the surface the paper's library uses from the underlying frameworks.
"""

from repro.nn.tensor import Tensor
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.optim import SGD, Adam, LRScheduler, StepLR
from repro.nn.models import (
    MODEL_REGISTRY,
    CifarNet,
    InceptionLite,
    LogisticRegression,
    MnistCnn,
    ResNetLite,
    VggLite,
    build_model,
    model_dimension,
    model_size_mb,
)
from repro.nn.parameters import FlatParameterView, attach_flat_view

__all__ = [
    "Tensor",
    "Module",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "ReLU",
    "Dropout",
    "Flatten",
    "MaxPool2d",
    "AvgPool2d",
    "Sequential",
    "CrossEntropyLoss",
    "MSELoss",
    "SGD",
    "Adam",
    "LRScheduler",
    "StepLR",
    "MODEL_REGISTRY",
    "build_model",
    "model_dimension",
    "model_size_mb",
    "MnistCnn",
    "CifarNet",
    "InceptionLite",
    "ResNetLite",
    "VggLite",
    "LogisticRegression",
    "FlatParameterView",
    "attach_flat_view",
]
