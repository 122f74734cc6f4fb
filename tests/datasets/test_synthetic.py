"""Tests for the synthetic dataset generators."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datasets.synthetic import (
    Dataset,
    make_classification,
    make_synthetic_cifar10,
    make_synthetic_mnist,
)
from repro.exceptions import DatasetError


class TestDataset:
    def test_length_and_shape(self):
        ds = make_classification(50, (1, 4, 4), num_classes=5, seed=0)
        assert len(ds) == 50
        assert ds.input_shape == (1, 4, 4)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(images=np.zeros((3, 1, 2, 2)), labels=np.zeros(4, dtype=int), num_classes=2)

    def test_requires_two_classes(self):
        with pytest.raises(DatasetError):
            Dataset(images=np.zeros((3, 1, 2, 2)), labels=np.zeros(3, dtype=int), num_classes=1)

    def test_subset(self):
        ds = make_classification(20, (1, 2, 2), num_classes=2, seed=1)
        sub = ds.subset(np.array([0, 5, 7]))
        assert len(sub) == 3
        assert np.allclose(sub.images[1], ds.images[5])

    def test_split_sizes(self):
        ds = make_classification(100, (1, 2, 2), num_classes=2, seed=1)
        train, test = ds.split(0.25, seed=0)
        assert len(train) == 75 and len(test) == 25

    def test_split_disjoint(self):
        ds = make_classification(40, (1, 2, 2), num_classes=2, seed=1)
        ds.images += np.arange(40).reshape(-1, 1, 1, 1) * 1000  # make rows identifiable
        train, test = ds.split(0.5, seed=0)
        markers_train = set(np.round(train.images[:, 0, 0, 0] / 1000).astype(int))
        markers_test = set(np.round(test.images[:, 0, 0, 0] / 1000).astype(int))
        assert markers_train.isdisjoint(markers_test)
        assert len(markers_train | markers_test) == 40

    def test_split_invalid_fraction(self):
        ds = make_classification(10, (1, 2, 2), num_classes=2)
        with pytest.raises(DatasetError):
            ds.split(1.5)


class TestGenerators:
    def test_labels_are_balanced(self):
        ds = make_classification(100, (1, 3, 3), num_classes=10, seed=0)
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.min() == counts.max() == 10

    def test_deterministic_given_seed(self):
        a = make_classification(30, (1, 3, 3), seed=9)
        b = make_classification(30, (1, 3, 3), seed=9)
        assert np.allclose(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = make_classification(30, (1, 3, 3), seed=1)
        b = make_classification(30, (1, 3, 3), seed=2)
        assert not np.allclose(a.images, b.images)

    def test_noise_increases_class_overlap(self):
        """Higher noise should reduce the separation between class prototypes."""

        def separation(ds):
            means = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)])
            spread = np.linalg.norm(means[0] - means[1])
            within = ds.images[ds.labels == 0].std()
            return spread / within

        clean = make_classification(400, (1, 4, 4), num_classes=2, noise=0.1, seed=0)
        noisy = make_classification(400, (1, 4, 4), num_classes=2, noise=2.0, seed=0)
        assert separation(clean) > separation(noisy)

    def test_requires_enough_examples(self):
        with pytest.raises(DatasetError):
            make_classification(5, (1, 2, 2), num_classes=10)

    def test_mnist_shape(self):
        ds = make_synthetic_mnist(64)
        assert ds.input_shape == (1, 28, 28)
        assert ds.num_classes == 10

    def test_cifar_shape(self):
        ds = make_synthetic_cifar10(64)
        assert ds.input_shape == (3, 32, 32)
        assert ds.num_classes == 10

    def test_values_are_clipped(self):
        ds = make_synthetic_cifar10(64, noise=5.0)
        assert ds.images.max() <= 3.0 and ds.images.min() >= -3.0


def test_synthesis_builds_the_images_in_one_buffer():
    """The ssmw-bulyan-wide dataset (1200 CIFAR-shaped examples, 29.5 MB of
    images) peaks at 1.25 x its images: the noise buffer plus one row block."""
    tracemalloc.start()
    try:
        dataset = make_synthetic_cifar10(1200, noise=4.0, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * dataset.images.nbytes, (peak, dataset.images.nbytes)
