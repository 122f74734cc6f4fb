"""Procedural image-classification datasets.

Each class is defined by a random per-class prototype image; examples are the
prototype plus Gaussian noise plus a random affine brightness jitter.  The
noise level controls difficulty: higher noise produces slower, noisier
convergence curves — the regime where robust aggregation matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import DatasetError
from repro.utils import make_rng

#: Classes of the MNIST- and CIFAR-10-shaped datasets.
NUM_CLASSES = 10
#: Rows whose prototypes :func:`make_classification` gathers at once.
_ROW_BLOCK = 128


def train_size(num_examples: int, test_fraction: float) -> int:
    """How many of ``num_examples`` :meth:`Dataset.split` keeps for training."""
    return int(round(num_examples * (1.0 - test_fraction)))


@dataclass
class Dataset:
    """An in-memory supervised dataset of images and integer labels."""

    images: np.ndarray  # (N, C, H, W) float64 in roughly [-1, 1]
    labels: np.ndarray  # (N,) int64
    num_classes: int
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.labels.shape[0]:
            raise DatasetError("images and labels must have the same first dimension")
        if self.num_classes < 2:
            raise DatasetError("a classification dataset needs at least two classes")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return tuple(self.images.shape[1:])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Return a new dataset restricted to the given example indices."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            images=self.images[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
            name=self.name,
        )

    def split(self, test_fraction: float, seed: int = 0) -> Tuple["Dataset", "Dataset"]:
        """Shuffle and split into (train, test) datasets."""
        if not 0.0 < test_fraction < 1.0:
            raise DatasetError("test_fraction must lie strictly between 0 and 1")
        rng = make_rng(seed)
        order = rng.permutation(len(self))
        cut = train_size(len(self), test_fraction)
        return self.subset(order[:cut]), self.subset(order[cut:])


def make_classification(
    num_examples: int,
    image_shape: Tuple[int, int, int],
    num_classes: int = 10,
    noise: float = 0.6,
    seed: int = 0,
    name: str = "synthetic",
) -> Dataset:
    """Generate a prototype-plus-noise image classification dataset.

    Parameters
    ----------
    num_examples:
        Total number of examples to generate.
    image_shape:
        (channels, height, width) of each image.
    num_classes:
        Number of target classes; examples are split evenly across classes.
    noise:
        Standard deviation of the additive Gaussian noise.  Values around
        0.5–1.0 produce convergence curves shaped like the paper's.
    seed:
        Seed for the dataset generator.
    """
    if num_examples < num_classes:
        raise DatasetError("need at least one example per class")
    rng = make_rng(seed)
    channels, height, width = image_shape
    prototypes = rng.normal(0.0, 1.0, size=(num_classes, channels, height, width))

    labels = np.arange(num_examples, dtype=np.int64) % num_classes
    rng.shuffle(labels)
    # One dataset-sized buffer: the noise, then each row's prototype added in
    # place a block of rows at a time (the same ``p + n``, so the same bytes).
    images = rng.normal(0.0, noise, size=(num_examples, channels, height, width))
    for start in range(0, num_examples, _ROW_BLOCK):
        block = images[start : start + _ROW_BLOCK]
        np.add(prototypes[labels[start : start + _ROW_BLOCK]], block, out=block)
    # Per-example brightness jitter so that examples of the same class are not
    # trivially identical up to iid noise.
    images *= rng.uniform(0.8, 1.2, size=(num_examples, 1, 1, 1))
    np.clip(images, -3.0, 3.0, out=images)
    return Dataset(images=images, labels=labels, num_classes=num_classes, name=name)


def make_synthetic_mnist(num_examples: int = 2000, noise: float = 0.8, seed: int = 0) -> Dataset:
    """MNIST-shaped synthetic dataset: 28x28 single-channel images, 10 classes."""
    return make_classification(
        num_examples, (1, 28, 28), num_classes=NUM_CLASSES, noise=noise, seed=seed, name="synthetic-mnist"
    )


def make_synthetic_cifar10(num_examples: int = 2000, noise: float = 1.0, seed: int = 0) -> Dataset:
    """CIFAR-10-shaped synthetic dataset: 32x32 RGB images, 10 classes."""
    return make_classification(
        num_examples, (3, 32, 32), num_classes=NUM_CLASSES, noise=noise, seed=seed, name="synthetic-cifar10"
    )
