"""One sizing rule: the analytic throughput model prices the GARs the runtime runs.

For every bundled deployment, synchronous and asynchronous, at the CPU
testbed's sizes, ``ThroughputModel``'s gradient and model rules have the same
``(name, n, f)`` as the GARs the Controller builds for the same cluster (an
asynchronous server waits for ``n - f`` replies, ByzSGD-style, and its rules
are sized for them).
"""

from __future__ import annotations

import pytest

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.session import available_applications

TESTBED = PAPER_TESTBEDS["cpu"]


def rule(gar):
    return None if gar is None else (gar.name, gar.n, gar.f)


def config_at_testbed(deployment: str, asynchronous: bool, **overrides) -> ClusterConfig:
    replicated = deployment in ("msmw", "crash-tolerant")
    return ClusterConfig(
        deployment=deployment,
        num_workers=TESTBED["num_workers"],
        num_byzantine_workers=TESTBED["num_byzantine_workers"],
        num_servers=TESTBED["num_servers"] if replicated else 1,
        num_byzantine_servers=TESTBED["num_byzantine_servers"] if replicated else 0,
        gradient_gar="multi-krum",
        model_gar="median",
        asynchronous=asynchronous,
        model="logistic",
        dataset_size=180,
        **overrides,
    )


@pytest.mark.parametrize("asynchronous", [False, True])
@pytest.mark.parametrize("deployment", available_applications())
def test_throughput_model_runs_the_rules_the_controller_builds(deployment, asynchronous):
    config = config_at_testbed(deployment, asynchronous)
    model = ThroughputModel(
        num_workers=config.num_workers,
        num_byzantine_workers=config.num_byzantine_workers,
        num_servers=config.num_servers,
        num_byzantine_servers=config.num_byzantine_servers,
        gradient_gar=config.gradient_gar,
        model_gar=config.model_gar,
        asynchronous=asynchronous,
    )
    with Controller(config).build() as deployed:
        built = rule(deployed.gradient_gar), rule(deployed.model_gar)
    assert (rule(model._gradient_gar(deployment)), rule(model._model_gar(deployment))) == built
