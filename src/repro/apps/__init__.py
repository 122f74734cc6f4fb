"""The Garfield applications evaluated in the paper (Section 5) and baselines.

Each application is a :class:`~repro.core.session.RoundStrategy` — a
declarative description of one deployment's scatter → aggregate → apply round
— registered with :func:`~repro.core.session.register_application` and
executed by the single round engine in :mod:`repro.core.session`.  Importing
this package registers the six bundled strategies; third-party strategies
plug into the same registry with the decorator; ``Session(deployment).run()``
drives an already-built deployment to completion.  The analytic throughput
model used by the benchmark harness lives in :mod:`repro.apps.throughput`.
"""

from repro.core.session import (
    APPLICATION_REGISTRY,
    RoundStrategy,
    available_applications,
    register_application,
)

from repro.apps.vanilla import VanillaStrategy
from repro.apps.aggregathor import AggregathorStrategy
from repro.apps.crash_tolerant import CrashTolerantStrategy
from repro.apps.ssmw import SSMWStrategy
from repro.apps.msmw import MSMWStrategy
from repro.apps.decentralized import DecentralizedStrategy
from repro.apps.throughput import ThroughputModel, iteration_breakdown

__all__ = [
    "APPLICATION_REGISTRY",
    "RoundStrategy",
    "available_applications",
    "register_application",
    "VanillaStrategy",
    "AggregathorStrategy",
    "CrashTolerantStrategy",
    "SSMWStrategy",
    "MSMWStrategy",
    "DecentralizedStrategy",
    "ThroughputModel",
    "iteration_breakdown",
]
