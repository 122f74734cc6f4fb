"""Tests for the Experiment (model / dataset registry) module."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import DATASET_SHAPES, Experiment
from repro.exceptions import ConfigurationError
from repro.nn.tensor import Tensor


class TestDatasets:
    def test_known_dataset_shapes(self):
        assert DATASET_SHAPES["mnist"] == (1, 28, 28)
        assert DATASET_SHAPES["cifar10"] == (3, 32, 32)

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError):
            Experiment(dataset_name="imagenet")

    def test_invalid_test_fraction(self):
        with pytest.raises(ConfigurationError):
            Experiment(test_fraction=0.0)

    def test_build_dataset_split_sizes(self):
        experiment = Experiment(dataset_size=100, test_fraction=0.2)
        train, test = experiment.build_dataset()
        assert len(train) == 80 and len(test) == 20

    def test_build_dataset_matches_declared_shape(self):
        experiment = Experiment(dataset_name="cifar10", dataset_size=40)
        train, _ = experiment.build_dataset()
        assert train.input_shape == (3, 32, 32)

    def test_deterministic_given_seed(self):
        a, _ = Experiment(dataset_size=40, seed=7).build_dataset()
        b, _ = Experiment(dataset_size=40, seed=7).build_dataset()
        assert np.allclose(a.images, b.images)


class TestModels:
    def test_mnist_cnn_matches_mnist_shape(self):
        experiment = Experiment(model_name="mnist_cnn", dataset_name="mnist", dataset_size=40)
        model = experiment.build_model()
        out = model(Tensor(np.zeros((2, 1, 28, 28))))
        assert out.shape == (2, 10)

    def test_cifarnet_matches_cifar_shape(self):
        experiment = Experiment(model_name="cifarnet", dataset_name="cifar10", dataset_size=40)
        model = experiment.build_model()
        out = model(Tensor(np.zeros((1, 3, 32, 32))))
        assert out.shape == (1, 10)

    def test_logistic_adapts_to_dataset(self):
        experiment = Experiment(model_name="logistic", dataset_name="cifar10", dataset_size=40)
        model = experiment.build_model()
        out = model(Tensor(np.zeros((1, 3, 32, 32))))
        assert out.shape == (1, 10)

    def test_mismatched_model_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            Experiment(model_name="mnist_cnn", dataset_name="cifar10", dataset_size=40).build_model()
        with pytest.raises(ConfigurationError):
            Experiment(model_name="cifarnet", dataset_name="mnist", dataset_size=40).build_model()

    def test_same_seed_builds_identical_replicas(self):
        experiment = Experiment(model_name="logistic", dataset_size=40, seed=3)
        a, b = experiment.build_model(), experiment.build_model()
        from repro.nn.parameters import attach_flat_view

        assert np.array_equal(
            attach_flat_view(a.parameters()).parameter_vector(),
            attach_flat_view(b.parameters()).parameter_vector(),
        )
