"""Garfield's main objects and training infrastructure.

This package mirrors the component diagram of Figure 1 in the paper:

* :class:`~repro.core.server.Server` and :class:`~repro.core.worker.Worker`
  — the two main objects, with the ``get_gradients()`` / ``get_models()``
  networking abstractions on the server side.
* :class:`~repro.core.byzantine.ByzantineServer` and
  :class:`~repro.core.byzantine.ByzantineWorker` — subclasses implementing
  the attacks of :mod:`repro.attacks`.
* :mod:`repro.core.cluster` / :mod:`repro.core.controller` — cluster
  definition, parameter parsing and deployment construction.
* :mod:`repro.core.experiment` — the model / dataset registry.
* :mod:`repro.core.executor` — the execution engines (serial / threaded /
  process) that fan out ``get_gradients`` / ``get_models`` RPCs concurrently;
  the process engine pairs with :mod:`repro.network.rpc` to run every node as
  its own OS subprocess speaking length-prefixed TCP.
* :mod:`repro.core.metrics` — accuracy, throughput, latency breakdown and the
  parameter-vector alignment measurements of Table 2.
* :mod:`repro.core.scenario` — declarative chaos scenarios: round-indexed
  failure/attack timelines applied by a director at round boundaries, with
  deterministic per-round traces folded from the session's round results.
* :mod:`repro.core.session` — the streaming Session API: one round engine
  executing per-deployment :class:`~repro.core.session.RoundStrategy`
  objects and yielding one :class:`~repro.core.session.RoundResult` per
  round, with pause/resume, ``run(until=...)``, early-stop predicates, round
  callbacks, mid-run checkpoints and the one-call
  :func:`~repro.core.session.train` entry point.
"""

from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller, Deployment, ProcessDeployment
from repro.core.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
    available_executors,
    create_executor,
)
from repro.core.experiment import Experiment
from repro.core.metrics import (
    AlignmentProbe,
    IterationRecord,
    MetricsLog,
    Trace,
    parameter_alignment,
)
from repro.core.scenario import (
    SCENARIO_LIBRARY,
    ScenarioDirector,
    ScenarioEvent,
    ScenarioSpec,
    available_scenarios,
    config_for_scenario,
    load_scenario,
)
from repro.core.session import (
    APPLICATION_REGISTRY,
    RoundContext,
    RoundResult,
    RoundStrategy,
    Session,
    available_applications,
    register_application,
    resolve_application,
    train,
)
from repro.core.node import Node
from repro.core.server import Server
from repro.core.worker import Worker
from repro.core.byzantine import ByzantineServer, ByzantineWorker

__all__ = [
    "APPLICATION_REGISTRY",
    "RoundContext",
    "RoundResult",
    "RoundStrategy",
    "Session",
    "available_applications",
    "register_application",
    "resolve_application",
    "train",
    "Node",
    "Server",
    "Worker",
    "ByzantineServer",
    "ByzantineWorker",
    "ClusterConfig",
    "Controller",
    "Deployment",
    "ProcessDeployment",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "available_executors",
    "create_executor",
    "Experiment",
    "MetricsLog",
    "IterationRecord",
    "AlignmentProbe",
    "Trace",
    "parameter_alignment",
    "SCENARIO_LIBRARY",
    "ScenarioDirector",
    "ScenarioEvent",
    "ScenarioSpec",
    "available_scenarios",
    "config_for_scenario",
    "load_scenario",
]
