"""Reproduction of *Garfield: System Support for Byzantine Machine Learning*.

This package provides a complete, self-contained reproduction of the Garfield
library (DSN 2021).  It is organised as a stack of subpackages:

``repro.nn``
    A from-scratch numpy tensor / autograd / neural-network substrate that
    plays the role TensorFlow and PyTorch play in the original paper.

``repro.datasets``
    Synthetic image-classification datasets (MNIST-like and CIFAR-like),
    data loaders and iid / non-iid partitioning across workers.

``repro.aggregators``
    The statistically robust gradient aggregation rules (GARs): Average,
    Median, Krum / Multi-Krum, MDA and Bulyan, plus the variance-condition
    checking tool described in Section 3.1 of the paper.

``repro.attacks``
    Byzantine attack implementations (random vectors, reversed vectors,
    dropped vectors, little-is-enough, fall-of-empires).

``repro.network``
    A simulated point-to-point, pull-based RPC transport with latency,
    bandwidth and serialization cost models plus failure injection.

``repro.core``
    The Garfield main objects: :class:`~repro.core.server.Server`,
    :class:`~repro.core.worker.Worker`, their Byzantine variants, the
    cluster / controller / experiment modules and metric collection.

``repro.apps``
    The three applications evaluated in the paper (SSMW, MSMW and
    decentralized learning) together with the vanilla, AggregaThor and
    crash-tolerant baselines — each a declarative
    :class:`~repro.core.session.RoundStrategy` executed by the streaming
    Session engine.

The public training API is the streaming Session surface (lazily imported so
``import repro`` stays light)::

    import repro

    from repro.core import ClusterConfig

    session = repro.Session(config=ClusterConfig(num_workers=8, num_byzantine_workers=2))
    for round_result in session:
        print(round_result.iteration, round_result.accuracy)

    result = repro.train(deployment="ssmw", num_workers=8, num_byzantine_workers=2)
"""

from repro.version import __version__

__all__ = [
    "__version__",
    "Session",
    "RoundStrategy",
    "RoundResult",
    "register_application",
    "available_applications",
    "train",
    "ScenarioGenerator",
    "InvariantChecker",
    "run_campaign",
]

#: Lazy attribute table: name -> providing module (PEP 562).
_LAZY_EXPORTS = {
    "Session": "repro.core.session",
    "RoundStrategy": "repro.core.session",
    "RoundResult": "repro.core.session",
    "register_application": "repro.core.session",
    "available_applications": "repro.core.session",
    "train": "repro.core.session",
    "ScenarioGenerator": "repro.core.fuzz",
    "InvariantChecker": "repro.core.fuzz",
    "run_campaign": "repro.core.fuzz",
}


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(_LAZY_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute '{name}'")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
