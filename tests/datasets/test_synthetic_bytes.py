"""Characterisation of the synthesized datasets, byte for byte.

Every run's quality numbers start from the images and labels that
:func:`~repro.datasets.synthetic.make_classification` draws, so a change to
how it builds them (the order of its draws, the order of its arithmetic, the
buffers it writes into) must leave the bytes alone.  The suite hashes the
images and labels of the MNIST- and CIFAR-10-shaped datasets with sha256 and
compares them with ``synthetic_digests.json``: the benchmark workloads'
``(dataset_size, dataset_noise)`` at seeds 1 and 13, plus sizes below one row
block and one row past it.

Re-bless explicitly with ``--update-golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.datasets.synthetic import make_synthetic_cifar10, make_synthetic_mnist

FIXTURE = Path(__file__).with_name("synthetic_digests.json")
MAKERS = {"mnist": make_synthetic_mnist, "cifar10": make_synthetic_cifar10}
#: (dataset, dataset_size, dataset_noise): the e2e workloads' datasets, then
#: a size below one 128-row block and one a row past it.
SHAPES = [("mnist", 600, 0.8), ("cifar10", 1200, 4.0), ("cifar10", 800, 4.0)]
EXTRA = [("mnist", 100, 0.8, 1), ("cifar10", 129, 1.0, 1)]
CASES = [(name, size, noise, seed) for seed in (1, 13) for name, size, noise in SHAPES] + EXTRA


def digests(name: str, size: int, noise: float, seed: int) -> dict:
    dataset = MAKERS[name](size, noise=noise, seed=seed)
    return {
        "images": hashlib.sha256(dataset.images.tobytes()).hexdigest(),
        "labels": hashlib.sha256(dataset.labels.tobytes()).hexdigest(),
        "dtypes": [str(dataset.images.dtype), str(dataset.labels.dtype)],
    }


@pytest.mark.parametrize("name,size,noise,seed", CASES, ids=lambda value: str(value))
def test_synthesized_bytes_match_the_fixture(name, size, noise, seed, update_golden):
    key = f"{name}-{size}-{noise}-seed{seed}"
    observed = digests(name, size, noise, seed)
    if update_golden:
        fixture = json.loads(FIXTURE.read_text()) if FIXTURE.is_file() else {}
        fixture[key] = observed
        FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
        return
    assert observed == json.loads(FIXTURE.read_text())[key]
