"""Property-based tests (hypothesis) over the scenario generator itself.

The generator is the harness's trusted base: if it can emit an invalid spec,
a campaign failure might be a generator bug rather than a library bug.  These
properties pin the contract for arbitrary (seed, index) pairs: every emitted
spec validates against its own roster, generation is a pure function of
(seed, index), the budget knob maps onto the declared fault margin, specs
survive a JSON round-trip byte-exactly, and the attackers the oracle names
are the ones the deployment builds.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.byzantine import ByzantineServer, ByzantineWorker
from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.fuzz import BUDGETS, FUZZ_DEPLOYMENTS, ScenarioGenerator
from repro.core.scenario import ScenarioSpec, validate_timeline

pytestmark = pytest.mark.fuzz

seeds = st.integers(min_value=0, max_value=2**31 - 1)
indices = st.integers(min_value=0, max_value=500)


@given(seed=seeds, index=indices)
@settings(max_examples=60, deadline=None)
def test_generated_specs_validate_against_their_roster(seed, index):
    case = ScenarioGenerator(seed=seed).case(index)
    config = ClusterConfig.from_dict(dict(case.spec.config))
    workers, servers = config.node_ids()
    validate_timeline(  # raises ConfigurationError on any invalid timeline
        case.spec,
        [*workers, *servers],
        byzantine_ids=config.byzantine_ids(),
        max_byzantine_count=config.num_attacking_workers,
    )


@given(seed=seeds, index=indices)
@settings(max_examples=60, deadline=None)
def test_generated_configs_are_buildable(seed, index):
    """Every emitted config passes full ClusterConfig validation (GAR bounds)."""
    case = ScenarioGenerator(seed=seed).case(index)
    config = ClusterConfig.from_dict(dict(case.spec.config))
    assert config.gradient_quorum() >= 1


@given(seed=seeds, index=indices)
@settings(max_examples=40, deadline=None)
def test_generation_is_deterministic(seed, index):
    first = ScenarioGenerator(seed=seed).case(index)
    second = ScenarioGenerator(seed=seed).case(index)
    assert first.spec.to_json() == second.spec.to_json()
    assert first.to_dict() == second.to_dict()


@given(seed=seeds, index=indices)
@settings(max_examples=60, deadline=None)
def test_budget_knob_respects_the_margin(seed, index):
    """Tolerated budgets never over-spend; 'beyond' always over-spends.

    Replaying crash/recover events gives the peak number of simultaneously
    crashed nodes; partitions are islands of at most ``margin`` nodes.
    """
    case = ScenarioGenerator(seed=seed).case(index)
    crashed, peak = set(), 0
    for event in case.spec.events:
        if event.action == "crash":
            crashed.add(event.target)
            peak = max(peak, len(crashed))
        elif event.action == "recover":
            crashed.discard(event.target)
        elif event.action == "partition":
            assert case.budget != "beyond"
            assert len(event.value[0]) <= case.margin
    if case.budget == "beyond":
        assert peak > case.margin or case.mechanism == "worker-crash"
    else:
        assert peak <= case.margin


@given(seed=seeds, index=indices)
@settings(max_examples=40, deadline=None)
def test_specs_round_trip_through_json(seed, index):
    case = ScenarioGenerator(seed=seed).case(index)
    reloaded = ScenarioSpec.from_json(case.spec.to_json())
    assert reloaded.to_json() == case.spec.to_json()
    assert json.loads(case.spec.to_json())["config"] == case.spec.config


@given(seed=seeds, index=indices)
@settings(max_examples=40, deadline=None)
def test_budget_cycle_is_exhaustive(seed, index):
    """Deployment and budget are determined by the index alone."""
    case = ScenarioGenerator(seed=seed).case(index)
    assert case.deployment == FUZZ_DEPLOYMENTS[index % len(FUZZ_DEPLOYMENTS)]
    expected_budget = BUDGETS[(index // len(FUZZ_DEPLOYMENTS)) % len(BUDGETS)]
    assert case.budget == expected_budget
    assert case.expects_loud_failure == (case.budget == "beyond")
    if case.guarantees_completion:
        assert case.budget != "beyond"
        assert not any(event.action == "drop_rate" for event in case.spec.events)


@given(seed=seeds, index=indices)
@settings(max_examples=60, deadline=None)
def test_validate_referees_every_layer(seed, index):
    """A refused draw keeps the default; what is kept is what validate allows."""
    case = ScenarioGenerator(seed=seed).case(index)
    config = case.spec.config
    for layer in case.refused:
        assert layer not in config
    if case.layer("detector"):
        assert case.deployment in ("ssmw", "aggregathor")
    if case.layer("shards") > 1:
        assert case.deployment == "msmw" and config["shards"] <= config["num_servers"]


def _built_attackers(config: ClusterConfig):
    deployment = Controller(config).build()
    try:
        return [
            node.node_id
            for node in [*deployment.workers, *deployment.servers]
            if isinstance(node, (ByzantineWorker, ByzantineServer))
        ]
    finally:
        deployment.close()


@given(seed=seeds, index=indices)
@settings(max_examples=30, deadline=None)
def test_byzantine_ids_are_the_attackers_the_deployment_builds(seed, index):
    config = ClusterConfig.from_dict(dict(ScenarioGenerator(seed=seed).case(index).spec.config))
    assert config.byzantine_ids() == _built_attackers(config)


def test_byzantine_ids_name_attacking_server_replicas():
    config = ClusterConfig(
        deployment="msmw", model="logistic", num_workers=7, num_byzantine_workers=1,
        num_attacking_workers=1, num_servers=4, num_byzantine_servers=1,
        num_attacking_servers=1, gradient_gar="median", model_gar="median",
        asynchronous=True,
    )
    assert config.byzantine_ids() == ["worker-6", "server-3"] == _built_attackers(config)
