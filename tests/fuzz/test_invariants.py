"""Negative-path tests: beyond-f-bound scenarios must fail *loudly*.

GARFIELD's guarantee is conditional on the f-bound; these tests pin what
happens when the condition is broken.  There are exactly two acceptable loud
modes — a typed :class:`~repro.exceptions.GarfieldError` or the explicit
divergence flag in the round results and trace — and never a third: silently
completing with a poisoned model.  Covered per the issue: the vanilla
baseline (f-bound 0, flag path), Krum-guarded SSMW, MSMW and the
crash-tolerant strategy (typed-exception paths).
"""

from __future__ import annotations

import pytest

from repro.core.fuzz import (
    FuzzCase,
    InvariantChecker,
    ScenarioGenerator,
    build_session_for_spec,
    run_spec,
)
from repro.core.scenario import ScenarioEvent, ScenarioSpec
from repro.exceptions import GarfieldError, TimeoutError, TrainingError

pytestmark = pytest.mark.fuzz

_BASE = {
    "model": "logistic",
    "dataset": "mnist",
    "dataset_size": 144,
    "batch_size": 8,
    "learning_rate": 0.2,
    "num_iterations": 10,
    "accuracy_every": 2,
    "seed": 5,
}


def _spec(name, config, events=()):
    return ScenarioSpec(
        name=name,
        config={**_BASE, **config},
        events=[ScenarioEvent.from_dict(dict(event)) for event in events],
    )


class TestVanillaBeyondBound:
    """vanilla averages with f = 0: any attacker is beyond the bound."""

    def test_poisoned_run_sets_the_divergence_flag(self):
        spec = _spec(
            "vanilla-poisoned",
            {
                "deployment": "vanilla",
                "num_workers": 5,
                "num_byzantine_workers": 1,
                "num_attacking_workers": 1,
                "worker_attack": "reversed",
            },
        )
        outcome = run_spec(spec)
        assert outcome.error is None  # averaging never times out here ...
        assert outcome.diverged  # ... so the flag is the loud channel
        assert outcome.results[0].diverged
        assert outcome.trace.rounds[0]["diverged"] is True

    def test_flag_lands_in_round_results_and_trace(self):
        spec = _spec(
            "vanilla-poisoned-trace",
            {
                "deployment": "vanilla",
                "num_workers": 5,
                "num_byzantine_workers": 1,
                "num_attacking_workers": 1,
                "worker_attack": "reversed",
            },
        )
        session = build_session_for_spec(spec)
        try:
            results = list(session)
            assert any(r.diverged for r in results)
            assert any(r.to_dict()["diverged"] for r in results)
            assert session.diverged
            assert session.trace.diverged
            flagged = [e for e in session.trace.rounds if e.get("diverged")]
            unflagged = [e for e in session.trace.rounds if not e.get("diverged")]
            assert flagged
            # The key is only present on diverged rounds (golden compatibility).
            assert all("diverged" not in entry for entry in unflagged)
        finally:
            session.close()

    def test_identical_run_with_krum_is_tolerated(self):
        """The control: same cluster, robust GAR, inside the bound — converges."""
        spec = _spec(
            "ssmw-krum-tolerated",
            {
                "deployment": "ssmw",
                "num_workers": 6,
                "num_byzantine_workers": 1,
                "num_attacking_workers": 1,
                "worker_attack": "reversed",
                "gradient_gar": "krum",
            },
        )
        outcome = run_spec(spec)
        assert outcome.error is None
        assert not outcome.diverged
        assert outcome.final_loss < 1.0


class TestKrumBeyondBound:
    def test_crashes_past_the_margin_raise_typed_timeout(self):
        spec = _spec(
            "ssmw-krum-overcrashed",
            {
                "deployment": "ssmw",
                "num_workers": 6,
                "num_byzantine_workers": 1,
                "gradient_gar": "krum",
                "asynchronous": True,
            },
            [
                {"round": 3, "action": "crash", "target": "worker-0"},
                {"round": 3, "action": "crash", "target": "worker-1"},
            ],
        )
        outcome = run_spec(spec)
        assert isinstance(outcome.error, TimeoutError)
        assert isinstance(outcome.error, GarfieldError)
        assert outcome.rounds_run == 3  # died at the first over-budget round


class TestMSMWBeyondBound:
    def test_worker_crashes_past_f_raise_typed_timeout(self):
        spec = _spec(
            "msmw-overcrashed",
            {
                "deployment": "msmw",
                "num_workers": 7,
                "num_byzantine_workers": 2,
                "num_servers": 3,
                "num_byzantine_servers": 0,
                "gradient_gar": "median",
                "model_gar": "median",
                "asynchronous": True,
            },
            [
                {"round": 2, "action": "crash", "target": "worker-0"},
                {"round": 2, "action": "crash", "target": "worker-1"},
                {"round": 2, "action": "crash", "target": "worker-2"},
            ],
        )
        outcome = run_spec(spec)
        assert isinstance(outcome.error, TimeoutError)

    def test_crashes_at_f_are_tolerated(self):
        spec = _spec(
            "msmw-at-bound",
            {
                "deployment": "msmw",
                "num_workers": 7,
                "num_byzantine_workers": 2,
                "num_servers": 3,
                "num_byzantine_servers": 0,
                "gradient_gar": "median",
                "model_gar": "median",
                "asynchronous": True,
            },
            [
                {"round": 2, "action": "crash", "target": "worker-0"},
                {"round": 2, "action": "crash", "target": "worker-1"},
            ],
        )
        outcome = run_spec(spec)
        assert outcome.error is None and outcome.completed
        assert not outcome.diverged


class TestCrashTolerantBeyondBound:
    def test_all_server_replicas_crashed_raises_training_error(self):
        spec = _spec(
            "ct-all-servers-down",
            {"deployment": "crash-tolerant", "num_workers": 4, "num_servers": 2},
            [
                {"round": 2, "action": "crash", "target": "server-0"},
                {"round": 4, "action": "crash", "target": "server-1"},
            ],
        )
        outcome = run_spec(spec)
        assert isinstance(outcome.error, TrainingError)
        assert "all server replicas" in str(outcome.error)

    def test_single_worker_crash_starves_the_synchronous_quorum(self):
        spec = _spec(
            "ct-worker-down",
            {"deployment": "crash-tolerant", "num_workers": 4, "num_servers": 2},
            [{"round": 3, "action": "crash", "target": "worker-2"}],
        )
        outcome = run_spec(spec)
        assert isinstance(outcome.error, TimeoutError)


class TestCheckerOracle:
    """The InvariantChecker classifies these outcomes the same way."""

    def test_beyond_budget_cases_pass_when_loud(self):
        generator = ScenarioGenerator(seed=11)
        checker = InvariantChecker()
        beyond = [c for c in generator.cases(15) if c.budget == "beyond"]
        assert beyond
        for case in beyond:
            report = checker.check(case, determinism=False)
            assert report.passed, [v.to_dict() for v in report.violations]
            assert report.error is not None or report.diverged

    def test_silent_overbudget_completion_is_a_violation(self):
        """If a beyond-budget schedule completes quietly, the checker objects."""
        import dataclasses

        generator = ScenarioGenerator(seed=11)
        case = next(c for c in generator.cases(15) if c.budget == "beyond")
        # Strip the over-budget events: the run now completes quietly, but the
        # case still *claims* to be beyond the bound.
        quiet_spec = ScenarioSpec(
            name=case.spec.name, config=dict(case.spec.config), events=[]
        )
        quiet = dataclasses.replace(case, spec=quiet_spec)
        report = InvariantChecker().check(quiet, determinism=False)
        assert {v.invariant for v in report.violations} == {"loud-at-overbudget"}

    def test_a_dead_server_replica_leaves_the_gradient_quorum_alone(self):
        """A replica's ``dead`` event shrinks the replica ledger only: the
        oracle must not expect a smaller gradient quorum for it."""
        spec = _spec(
            "msmw-replica-dies",
            {
                "deployment": "msmw",
                "asynchronous": True,
                "num_workers": 7,
                "num_byzantine_workers": 1,
                "num_servers": 4,
                "num_byzantine_servers": 1,
                "gradient_gar": "median",
                "model_gar": "average",
                "resilience": {"retry": True},
            },
            [{"round": 1, "action": "crash", "target": "server-0"}],
        )
        outcome = run_spec(spec)
        deaths = [
            event["target"]
            for result in outcome.results
            for event in (result.health or {}).get("events", ())
            if event["action"] == "dead"
        ]
        assert deaths == ["server-0"]
        assert {result.quorum for result in outcome.results} == {6}
        case = FuzzCase(
            index=0,
            seed=5,
            deployment="msmw",
            budget="at",
            margin=1,
            mechanism="server-crash",
            spec=spec,
            guarantees_completion=True,
            expects_loud_failure=False,
        )
        report = InvariantChecker().check(case, determinism=False)
        assert report.passed, [v.to_dict() for v in report.violations]
