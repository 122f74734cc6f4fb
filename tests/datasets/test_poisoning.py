"""Tests for the data-poisoning utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.poisoning import corrupt_images, flip_labels
from repro.datasets.synthetic import make_classification
from repro.exceptions import DatasetError


@pytest.fixture
def dataset():
    return make_classification(100, (1, 4, 4), num_classes=5, seed=0)


class TestFlipLabels:
    def test_full_flip_changes_every_label(self, dataset):
        poisoned = flip_labels(dataset, fraction=1.0, seed=1)
        assert np.all(poisoned.labels != dataset.labels)

    def test_zero_fraction_changes_nothing(self, dataset):
        poisoned = flip_labels(dataset, fraction=0.0, seed=1)
        assert np.array_equal(poisoned.labels, dataset.labels)

    def test_partial_flip_changes_expected_count(self, dataset):
        poisoned = flip_labels(dataset, fraction=0.3, seed=1)
        assert int((poisoned.labels != dataset.labels).sum()) == 30

    def test_labels_remain_valid_classes(self, dataset):
        poisoned = flip_labels(dataset, fraction=1.0, seed=2)
        assert poisoned.labels.min() >= 0
        assert poisoned.labels.max() < dataset.num_classes

    def test_original_dataset_untouched(self, dataset):
        before = dataset.labels.copy()
        flip_labels(dataset, fraction=1.0, seed=3)
        assert np.array_equal(dataset.labels, before)

    def test_invalid_fraction(self, dataset):
        with pytest.raises(DatasetError):
            flip_labels(dataset, fraction=1.5)

    def test_deterministic_given_seed(self, dataset):
        a = flip_labels(dataset, fraction=0.5, seed=7)
        b = flip_labels(dataset, fraction=0.5, seed=7)
        assert np.array_equal(a.labels, b.labels)


class TestCorruptImages:
    def test_images_replaced(self, dataset):
        corrupted = corrupt_images(dataset, seed=1)
        assert not np.allclose(corrupted.images, dataset.images)
        assert np.array_equal(corrupted.labels, dataset.labels)

    def test_shape_preserved(self, dataset):
        assert corrupt_images(dataset).images.shape == dataset.images.shape

    def test_invalid_scale(self, dataset):
        with pytest.raises(DatasetError):
            corrupt_images(dataset, noise_scale=0.0)

    def test_poisoned_worker_degrades_honest_gradient(self, dataset):
        """A worker trained on corrupted data produces gradients that robust GARs filter."""
        from repro.aggregators import init
        from repro.core.worker import Worker
        from repro.network.transport import Transport
        from repro.nn.models import LogisticRegression

        transport = Transport(seed=0)
        honest_workers = [
            Worker(f"w{i}", transport, LogisticRegression(16, 5, seed=0), dataset, batch_size=16, seed=i)
            for i in range(4)
        ]
        poisoned_worker = Worker(
            "poisoned",
            transport,
            LogisticRegression(16, 5, seed=0),
            flip_labels(dataset, fraction=1.0, seed=4),
            batch_size=16,
            seed=9,
        )
        state = honest_workers[0].flat_view().parameter_vector().copy()
        honest_gradients = [w.compute_gradient(state) for w in honest_workers]
        poisoned_gradient = poisoned_worker.compute_gradient(state)

        robust = init("krum", n=5, f=1).aggregate(honest_gradients + [poisoned_gradient])
        # Krum selects one of the honest gradients, never the poisoned one.
        assert any(np.allclose(robust, g) for g in honest_gradients)
