"""Data-poisoning utilities.

The Byzantine failure model covers corrupted data as well as corrupted
messages (Section 2.3 cites dirty-label robustness).  These helpers produce
poisoned *copies* of a worker's data shard, so a Byzantine worker can behave
"honestly" on garbage data — a failure mode robust aggregation must also
absorb.
"""

from __future__ import annotations

from repro.datasets.synthetic import Dataset
from repro.exceptions import DatasetError
from repro.utils import make_rng


def flip_labels(dataset: Dataset, fraction: float = 1.0, seed: int = 0) -> Dataset:
    """Return a copy of ``dataset`` with a fraction of labels reassigned at random.

    Each poisoned example receives a uniformly random *different* label.
    """
    if not 0.0 <= fraction <= 1.0:
        raise DatasetError("fraction must lie in [0, 1]")
    rng = make_rng(seed)
    labels = dataset.labels.copy()
    num_poisoned = int(round(fraction * len(dataset)))
    victims = rng.choice(len(dataset), size=num_poisoned, replace=False)
    for index in victims:
        offset = rng.integers(1, dataset.num_classes)
        labels[index] = (labels[index] + offset) % dataset.num_classes
    return Dataset(
        images=dataset.images.copy(),
        labels=labels,
        num_classes=dataset.num_classes,
        name=f"{dataset.name}-labelflip",
    )


def corrupt_images(dataset: Dataset, noise_scale: float = 5.0, seed: int = 0) -> Dataset:
    """Return a copy of ``dataset`` whose images are replaced by pure noise."""
    if noise_scale <= 0:
        raise DatasetError("noise_scale must be positive")
    rng = make_rng(seed)
    images = rng.normal(0.0, noise_scale, size=dataset.images.shape)
    return Dataset(
        images=images,
        labels=dataset.labels.copy(),
        num_classes=dataset.num_classes,
        name=f"{dataset.name}-corrupted",
    )
