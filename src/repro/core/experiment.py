"""The Experiment module: a unified model / dataset registry.

In the paper this module "abstracts the available models and datasets for
training" behind one interface regardless of the underlying framework (slim,
Keras or TorchVision).  Here it maps dataset names to the synthetic
generators and model names to the :mod:`repro.nn.models` zoo, taking care of
matching input shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.datasets.synthetic import NUM_CLASSES, Dataset, make_classification, train_size
from repro.exceptions import ConfigurationError
from repro.nn.layers import Module
from repro.nn.models import build_model

#: Datasets known to the experiment module and their (channels, height, width).
DATASET_SHAPES = {
    "mnist": (1, 28, 28),
    "cifar10": (3, 32, 32),
}


def check_model_input(model: str, dataset: str) -> None:
    """The one channel rule for a (model, dataset) pair.

    ``logistic`` adapts to any input, ``mnist_cnn`` reads single-channel
    input (mnist) and every other model 3-channel 32x32 input (cifar10).
    ``ClusterConfig.validate`` and :meth:`Experiment.build_model` both call it.
    """
    name = model.lower()
    channels = DATASET_SHAPES[dataset][0]
    if name == "mnist_cnn" and channels != 1:
        raise ConfigurationError("mnist_cnn expects single-channel input (mnist dataset)")
    if name not in ("logistic", "mnist_cnn") and channels != 3:
        raise ConfigurationError(f"model '{name}' expects 3-channel input (cifar10 dataset)")


def check_dataset_size(dataset_size: int, test_fraction: float, num_workers: int) -> None:
    """The size rule of a synthetic dataset: an example per class, and a
    training split that gives every worker an example.
    ``ClusterConfig.validate`` calls it, so no build fails on its data."""
    if dataset_size < NUM_CLASSES:
        raise ConfigurationError(f"dataset_size must be >= {NUM_CLASSES}, an example per class")
    train = train_size(dataset_size, test_fraction)
    if train < num_workers:
        raise ConfigurationError(
            f"dataset_size={dataset_size} leaves {train} training examples for {num_workers} workers"
        )


@dataclass
class Experiment:
    """Builds matching (model, dataset) pairs for a named experiment."""

    model_name: str = "mnist_cnn"
    dataset_name: str = "mnist"
    dataset_size: int = 600
    test_fraction: float = 0.2
    noise: float = 0.8
    seed: int = 1

    def __post_init__(self) -> None:
        if self.dataset_name not in DATASET_SHAPES:
            raise ConfigurationError(
                f"unknown dataset '{self.dataset_name}'; choose from {sorted(DATASET_SHAPES)}"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError("test_fraction must lie strictly between 0 and 1")

    # ------------------------------------------------------------------ #
    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return DATASET_SHAPES[self.dataset_name]

    def build_dataset(self) -> Tuple[Dataset, Dataset]:
        """Return the (train, test) split of the experiment's dataset."""
        full = make_classification(
            self.dataset_size, self.input_shape, noise=self.noise, seed=self.seed, name=f"synthetic-{self.dataset_name}"
        )
        return full.split(self.test_fraction, seed=self.seed)

    def build_model(self, seed: int | None = None) -> Module:
        """Instantiate a fresh model replica compatible with the dataset shape."""
        seed = self.seed if seed is None else seed
        name = self.model_name.lower()
        check_model_input(name, self.dataset_name)
        if name == "logistic":
            flat = int(self.input_shape[0] * self.input_shape[1] * self.input_shape[2])
            return build_model(name, input_dim=flat, seed=seed)
        return build_model(name, seed=seed)
