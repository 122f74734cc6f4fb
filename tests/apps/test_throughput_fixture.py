"""Characterisation of the analytic throughput model, deployment by deployment.

For each of the paper's two testbeds (``PAPER_TESTBEDS``) and each bundled
deployment, the suite prices one ResNet-50 iteration with
:meth:`~repro.apps.throughput.ThroughputModel.breakdown` and compares its
``total`` with ``throughput_fixture.json``, exactly; a deployment that
``ClusterConfig.validate`` refuses on a testbed is recorded as the refusal.
A change to how a round is priced shows up as the entries of that file that
move.

Re-bless explicitly with ``--update-golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel
from repro.core.cluster import ClusterConfig
from repro.exceptions import ConfigurationError

FIXTURE = Path(__file__).with_name("throughput_fixture.json")
DEPLOYMENTS = ("vanilla", "aggregathor", "ssmw", "crash-tolerant", "msmw", "decentralized")


def total(model: ThroughputModel, deployment: str) -> str:
    try:
        return repr(model.breakdown(deployment).total)
    except ConfigurationError as error:
        return f"refused: {error}"


def totals(testbed: str) -> dict:
    model = ThroughputModel(ClusterConfig(**PAPER_TESTBEDS[testbed]))
    return {deployment: total(model, deployment) for deployment in DEPLOYMENTS}


@pytest.mark.parametrize("testbed", sorted(PAPER_TESTBEDS))
def test_breakdown_totals_match_the_fixture(testbed, update_golden):
    observed = totals(testbed)
    if update_golden:
        fixture = json.loads(FIXTURE.read_text()) if FIXTURE.is_file() else {}
        fixture[testbed] = observed
        FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
        return
    assert observed == json.loads(FIXTURE.read_text())[testbed]
