"""One sizing rule: the analytic throughput model prices the GARs the runtime runs.

For every bundled deployment, synchronous and asynchronous, at the CPU
testbed's sizes, the config ``ThroughputModel`` prices a deployment on is the
one ``ClusterConfig.fitted`` builds, and its GARs have the same
``(name, n, f)`` as the GARs the Controller builds for that config (an
asynchronous server waits for ``n - f`` replies, ByzSGD-style, and its rules
are sized for them).
"""

from __future__ import annotations

import pytest

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.session import available_applications

EXPERIMENT = dict(model="logistic", dataset_size=180)


def rule(gar):
    return None if gar is None else (gar.name, gar.n, gar.f)


def cpu_testbed(asynchronous: bool) -> dict:
    fields = {**PAPER_TESTBEDS["cpu"], **EXPERIMENT, "asynchronous": asynchronous}
    del fields["deployment"]
    return fields


@pytest.mark.parametrize("asynchronous", [False, True])
@pytest.mark.parametrize("deployment", available_applications())
def test_throughput_model_runs_the_rules_the_controller_builds(deployment, asynchronous):
    config = ClusterConfig.fitted(deployment, **cpu_testbed(asynchronous))
    priced = ThroughputModel(ClusterConfig.fitted("msmw", **cpu_testbed(asynchronous)))
    assert priced.fitted(deployment) == config
    with Controller(config).build() as deployed:
        built = rule(deployed.gradient_gar), rule(deployed.model_gar)
    assert tuple(map(rule, config.build_gars())) == built


@pytest.mark.parametrize("deployment, servers", [("ssmw", (1, 0)), ("decentralized", (0, 0)), ("msmw", (6, 1))])
def test_fitted_sets_the_server_counts_of_the_layout(deployment, servers):
    config = ClusterConfig.fitted(deployment, **cpu_testbed(False))
    assert (config.num_servers, config.num_byzantine_servers) == servers
