"""Tier-1 scenario-fuzzing smoke: dozens of generated scenarios, all invariants.

This is the ``make fuzz-smoke`` entry point and the acceptance gate of the
fuzzing subsystem: a fixed-seed campaign of 30+ generated scenarios across all
five fuzzable deployments and all three fault budgets, with every feature
layer both on and off, must pass every invariant, the shrinker must reduce
failing timelines to minimal reproducing specs, and saved specs must replay
through the ordinary scenario path.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.cluster import ClusterConfig
from repro.core.fuzz import (
    BUDGETS,
    FUZZ_DEPLOYMENTS,
    LAYERS,
    FuzzCase,
    InvariantChecker,
    ScenarioGenerator,
    run_campaign,
    run_spec,
    shrink_case,
)
from repro.core.scenario import ScenarioEvent, ScenarioSpec, load_scenario

pytestmark = pytest.mark.fuzz

#: The pinned smoke campaign: everything in tier-1 hangs off this seed.
SMOKE_SEED = 2026
SMOKE_COUNT = 30


@pytest.fixture(scope="module")
def smoke_campaign():
    """One 30-case campaign shared by the assertions below (runs once)."""
    return run_campaign(seed=SMOKE_SEED, count=SMOKE_COUNT, shrink=False)


class TestSmokeCampaign:
    def test_every_invariant_passes(self, smoke_campaign):
        failures = smoke_campaign.failures
        details = [
            (report.case.name, [v.to_dict() for v in report.violations])
            for report in failures
        ]
        assert not failures, f"invariant violations in the smoke campaign: {details}"

    def test_covers_all_deployments_and_budgets(self, smoke_campaign):
        deployments = {report.case.deployment for report in smoke_campaign.reports}
        budgets = {report.case.budget for report in smoke_campaign.reports}
        assert len(smoke_campaign.reports) >= 30
        assert deployments == set(FUZZ_DEPLOYMENTS)  # >= 3 required; all 5 covered
        assert budgets == set(BUDGETS)

    def test_beyond_budget_cases_fail_loudly(self, smoke_campaign):
        beyond = [r for r in smoke_campaign.reports if r.case.budget == "beyond"]
        assert beyond
        for report in beyond:
            assert report.error is not None or report.diverged, (
                f"{report.case.name} exceeded the fault margin but neither raised "
                "a typed error nor set the divergence flag"
            )
            if report.error is not None:
                assert report.error in ("TimeoutError", "TrainingError", "NodeCrashedError")

    def test_tolerated_cases_complete_and_converge(self, smoke_campaign):
        guaranteed = [r for r in smoke_campaign.reports if r.case.guarantees_completion]
        assert guaranteed, "the smoke seed produced no guaranteed-completion cases"
        for report in guaranteed:
            assert report.error is None
            assert not report.diverged
            assert report.rounds_run == report.case.spec.config["num_iterations"]

    def test_report_summary_shape(self, smoke_campaign, tmp_path):
        data = smoke_campaign.to_dict()
        assert data["passed"] is True
        assert data["scenarios_run"] == SMOKE_COUNT
        assert set(data["deployments"]) == set(FUZZ_DEPLOYMENTS)
        assert "no-timeout-under-supervision" in data["invariants_checked"]
        path = tmp_path / "FUZZ_report.json"
        smoke_campaign.save_report(path)
        assert json.loads(path.read_text())["scenarios_run"] == SMOKE_COUNT


class TestLayers:
    """Every case draws its feature layers; the smoke window runs each both ways."""

    def test_every_layer_is_on_and_off_in_the_smoke_window(self, smoke_campaign):
        for layer, (default, *_) in LAYERS.items():
            values = [report.case.layer(layer) for report in smoke_campaign.reports]
            assert default in values, f"{layer} is never off"
            assert any(value != default for value in values), f"{layer} is never on"

    def test_the_report_counts_each_layer(self, smoke_campaign):
        layers = smoke_campaign.to_dict()["layers"]
        assert set(layers) == set(LAYERS)
        for tally in layers.values():
            assert sum(count for value, count in tally.items() if value != "refused") == SMOKE_COUNT
        # validate referees the draws: shards outside msmw keep the default.
        assert layers["shards"]["refused"] > 0


class TestUnshardedTwin:
    """A sharded case's unsharded twin must reproduce its trace byte for byte."""

    @staticmethod
    def _sharded_case():
        cases = ScenarioGenerator(seed=SMOKE_SEED).cases(SMOKE_COUNT)
        return next(case for case in cases if case.layer("shards") > 1)

    def test_the_twin_reproduces_the_trace(self):
        case = self._sharded_case()
        sharded = run_spec(case.spec)
        assert sharded.completed
        assert sharded.trace.to_json() == run_spec(case.spec, shards=1).trace.to_json()

    def test_a_lossy_shard_path_is_caught(self, monkeypatch):
        import repro.core.session as session_module

        exact = session_module.aggregate_shards
        monkeypatch.setattr(
            session_module, "aggregate_shards", lambda *args, **kwargs: exact(*args, **kwargs) * 1.001
        )
        report = InvariantChecker().check(self._sharded_case())
        messages = [v.message for v in report.violations if v.invariant == "determinism"]
        assert any("unsharded twin" in message for message in messages), report.violations


class TestHarnessTeeth:
    """A deliberately broken GAR must be caught — the harness-has-teeth gate.

    The bug is injected via monkeypatch (never committed): Median silently
    degrades to a plain mean, which a Byzantine worker can steer.
    """

    def test_mutated_median_is_caught(self, monkeypatch):
        import numpy as np

        from repro.aggregators.base import GAR_REGISTRY

        monkeypatch.setattr(
            GAR_REGISTRY["median"],
            "aggregate_matrix",
            lambda self, matrix: np.asarray(matrix).mean(axis=0),
        )
        campaign = run_campaign(
            seed=SMOKE_SEED,
            count=SMOKE_COUNT,
            shrink=False,
            determinism=False,
            cross_executor_every=0,
            pause_resume_every=0,
        )
        caught = {
            violation.invariant
            for report in campaign.failures
            for violation in report.violations
        }
        assert caught, "no invariant caught the mean-instead-of-median mutation"
        assert caught & {"bounded-update-norm", "tolerated-divergence", "convergence"}


def first_case(has_property) -> FuzzCase:
    """The first smoke-seed case with the property a test needs."""
    found = next((case for case in ScenarioGenerator(seed=SMOKE_SEED).cases(100) if has_property(case)), None)
    assert found is not None, "no case in the first 100 of the smoke seed has the property"
    return found


def steerable_median(case: FuzzCase) -> bool:
    """A tolerated case whose attackers a mean in place of its median GAR lets through."""
    cluster = ClusterConfig.from_dict(dict(case.spec.config))
    return (
        case.budget != "beyond"
        and cluster.num_attacking_workers > 0
        and cluster.shape.gradient_rule(cluster)[0] == "median"
    )


def _over_budget_case() -> FuzzCase:
    """A hand-built tolerated-budget case whose timeline actually over-spends.

    Three simultaneous crashes against a margin of two: the checker must flag
    liveness, and the shrinker must find that exactly margin+1 of the crash
    events (plus none of the garnish) reproduce the violation.
    """
    base = first_case(lambda case: case.deployment == "ssmw" and case.budget == "at")  # margin == f_w
    # The bare deployment: the case's drawn feature layers (resilience) go.
    config = {key: value for key, value in base.spec.config.items() if key not in LAYERS}
    config.update(
        num_workers=7, num_byzantine_workers=2, num_attacking_workers=0,
        gradient_gar="median", num_iterations=8, accuracy_every=4,
    )
    events = [
        {"round": 1, "action": "straggler", "target": "worker-5", "value": 4.0},
        {"round": 2, "action": "crash", "target": "worker-0"},
        {"round": 2, "action": "crash", "target": "worker-1"},
        {"round": 2, "action": "crash", "target": "worker-2"},
        {"round": 5, "action": "clear_straggler", "target": "worker-5"},
    ]
    spec = ScenarioSpec(
        name="fuzz-overspent",
        description="3 crashes against margin 2",
        config=config,
        events=[ScenarioEvent.from_dict(e) for e in events],
    )
    return dataclasses.replace(
        base, spec=spec, margin=2, mechanism="crash",
        guarantees_completion=True, expects_loud_failure=False,
    )


class TestShrinker:
    def test_shrinks_to_minimal_crash_set(self):
        case = _over_budget_case()
        checker = InvariantChecker()
        report = checker.check(case, determinism=False)
        assert {v.invariant for v in report.violations} == {"liveness"}
        shrunk = shrink_case(case, report, checker=checker)
        # 1-minimal: exactly margin+1 crashes survive, no garnish.
        assert len(shrunk.events) == 3
        assert all(event.action == "crash" for event in shrunk.events)

    def test_shrunk_spec_replays_via_scenario_path(self, tmp_path):
        case = _over_budget_case()
        checker = InvariantChecker()
        report = checker.check(case, determinism=False)
        shrunk = shrink_case(case, report, checker=checker)
        path = tmp_path / f"{shrunk.name}.json"
        shrunk.save(path)
        loaded = load_scenario(str(path))
        assert [e.to_dict() for e in loaded.events] == [e.to_dict() for e in shrunk.events]
        # The saved spec drives the ordinary `repro run --scenario` path and
        # reproduces the loud failure it was shrunk for.
        from repro.cli import main
        from repro.exceptions import TimeoutError

        with pytest.raises(TimeoutError):
            main(["run", "--scenario", str(path)])

    def test_campaign_saves_failing_specs(self, tmp_path, monkeypatch):
        import numpy as np

        from repro.aggregators.base import GAR_REGISTRY

        monkeypatch.setattr(
            GAR_REGISTRY["median"],
            "aggregate_matrix",
            lambda self, matrix: np.asarray(matrix).mean(axis=0),
        )
        save_dir = tmp_path / "failing"
        campaign = run_campaign(
            seed=SMOKE_SEED,
            count=10,
            start=first_case(steerable_median).index,
            determinism=False,
            cross_executor_every=0,
            pause_resume_every=0,
            shrink=True,
            save_dir=str(save_dir),
        )
        assert campaign.failures
        for report in campaign.failures:
            assert report.saved_path is not None
            saved = ScenarioSpec.load(report.saved_path)
            assert saved.config == report.case.spec.config


class TestThirdPartyStrategy:
    """The generator sizes a case by what its strategy declares, not by its name."""

    NAME = "third-party-msmw"

    @pytest.fixture
    def registered(self):
        from repro.apps.msmw import MSMWStrategy
        from repro.core.session import APPLICATION_REGISTRY, register_application

        register_application(self.NAME)(type("ThirdPartyMSMW", (MSMWStrategy,), {}))
        yield self.NAME
        APPLICATION_REGISTRY.pop(self.NAME, None)

    def test_a_registered_strategy_is_fuzzed_by_its_shape(self, registered):
        campaign = run_campaign(seed=SMOKE_SEED, count=6, deployments=(registered,), shrink=False)
        details = [(report.case.name, [v.to_dict() for v in report.violations]) for report in campaign.failures]
        assert not details, details
        assert {report.case.deployment for report in campaign.reports} == {registered}
        assert {report.case.budget for report in campaign.reports} == set(BUDGETS)
        for report in campaign.reports:
            config = report.case.spec.config
            assert config["num_servers"] >= 2 and report.case.margin == config["num_byzantine_workers"]

    def test_a_shape_without_a_fault_margin_is_refused(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="no fault margin"):
            ScenarioGenerator(deployments=("vanilla",))
        with pytest.raises(ConfigurationError, match="unknown deployment"):
            ScenarioGenerator(deployments=("gossip",))
