"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.cluster import ClusterConfig
from repro.datasets.synthetic import make_classification
from repro.network.transport import LinkModel, Transport
from repro.nn.models import LogisticRegression


#: Inherited by everything this session starts — coordinators in
#: subprocesses, zygotes, the hosts forked from them — and by nothing else.
SESSION_MARK = f"GARFIELD_TEST_SESSION={os.getpid()}\0".encode()


def _node_host_processes_of_this_session():
    found = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            command = (entry / "cmdline").read_bytes()  # empty for a zombie
            if b"repro.network.rpc" in command and SESSION_MARK in (entry / "environ").read_bytes():
                found.append(f"{entry.name}: {command.replace(bytes(1), b' ').decode()}")
        except OSError:
            continue  # gone meanwhile, or not ours to read
    return found


@pytest.fixture(scope="session", autouse=True)
def no_node_host_outlives_the_session():
    """Fail the run if a zygote or node host it started is still alive at the
    end: the orphan class of bug, caught for every process test at once."""
    name, _, value = SESSION_MARK.decode().rstrip("\0").partition("=")
    os.environ[name] = value
    yield
    survivors = _node_host_processes_of_this_session()
    assert not survivors, f"node-host processes outlived the test session: {survivors}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def update_golden(request):
    """Whether ``--update-golden`` was passed: re-bless golden traces explicitly."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture
def require_process_backend():
    """Callable fixture: skip when the sandbox forbids subprocesses/sockets.

    Tests call it *inside* their body (``require_process_backend()``) so only
    the process-backend parameter of a cross-backend test is skipped, never
    its serial/threaded siblings.  The skip reason always carries the probe's
    explanation, so a skipped process-backend run is diagnosable from the
    test report alone (``tests/network/test_rpc_conformance.py`` asserts this
    contract).
    """

    def check() -> None:
        from repro.network.rpc import process_backend_available

        available, reason = process_backend_available()
        if not available:
            pytest.skip(f"process backend unavailable: {reason}")

    return check


@pytest.fixture
def tiny_dataset():
    """A small, easy synthetic dataset (flat 4x4 single-channel images, 4 classes)."""
    return make_classification(120, (1, 4, 4), num_classes=4, noise=0.3, seed=3)


@pytest.fixture
def mnist_like():
    """A reduced MNIST-shaped dataset for worker/server tests."""
    return make_classification(160, (1, 28, 28), num_classes=10, noise=0.8, seed=5)


@pytest.fixture
def small_model():
    """A logistic-regression model matching ``tiny_dataset``."""
    return LogisticRegression(input_dim=16, num_classes=4, seed=0)


@pytest.fixture
def transport():
    """A transport with deterministic, low-jitter links."""
    return Transport(link=LinkModel(base_latency=1e-4, jitter=1e-5), seed=7)


@pytest.fixture
def fast_config():
    """A ClusterConfig that trains in well under a second (logistic model)."""
    return ClusterConfig(
        deployment="ssmw",
        num_workers=5,
        num_byzantine_workers=1,
        num_attacking_workers=1,
        worker_attack="random",
        gradient_gar="multi-krum",
        model="logistic",
        dataset="mnist",
        dataset_size=200,
        batch_size=8,
        num_iterations=8,
        accuracy_every=4,
        seed=11,
    )


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad
