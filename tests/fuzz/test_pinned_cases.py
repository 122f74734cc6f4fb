"""Generated cases that once broke an invariant, replayed as pinned specs.

Each case is a ``(seed, index)`` of the generator's bare grammar — its drawn
feature layers stripped — with the layer that exposed the defect set by
hand, so the replay stays the same whatever the layer draws become.  The
seed-stability fixtures pin the grammar these cases come from.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.fuzz import FUZZ_DEPLOYMENTS, LAYERS, FuzzCase, InvariantChecker, ScenarioGenerator
from repro.core.scenario import ScenarioSpec

pytestmark = pytest.mark.fuzz

SUPERVISED = {"retry": True, "hedge": True, "supervise": True}


def pinned(seed: int, index: int, deployments=FUZZ_DEPLOYMENTS, **layers) -> FuzzCase:
    """Case ``index`` of ``seed`` on the bare deployment, plus ``layers``."""
    case = ScenarioGenerator(seed=seed, deployments=deployments).case(index)
    config = {key: value for key, value in case.spec.config.items() if key not in LAYERS}
    spec = ScenarioSpec(
        name=case.spec.name,
        description=case.spec.description,
        config={**config, **layers},
        events=list(case.spec.events),
    )
    return dataclasses.replace(case, spec=spec, refused=())


def violations(case: FuzzCase):
    report = InvariantChecker().check(case, determinism=False)
    return report, [violation.to_dict() for violation in report.violations]


class TestHedgedPullsReAskLostPulls:
    """``no-timeout-under-supervision``: once the reserves are spent, a hedged
    pull still re-asks every pull whose message was lost."""

    def test_decentralized_partition_plus_drop(self):
        # server-2's first wave loses worker-4 to a drop and worker-2 to the
        # partition; the one reserve replaces worker-4 and the re-ask of
        # worker-2 hits the partition again, so worker-4 must be asked again.
        case = pinned(2026, 23, resilience=SUPERVISED)
        assert case.deployment == "decentralized" and case.budget == "at"
        report, found = violations(case)
        assert report.passed, found
        assert report.error is None

    def test_msmw_two_crashes_plus_a_dropped_reserve(self):
        case = pinned(0, 22, resilience=SUPERVISED)
        assert case.deployment == "msmw" and case.budget == "at"
        report, found = violations(case)
        assert report.passed, found
        assert report.error is None


class TestDetectionOracle:
    def test_crashing_an_evicted_worker_spends_no_margin(self):
        """The attacker is evicted in round 3; round 4 crashes it and one
        active worker, which is within the margin of one: the run may
        complete."""
        case = pinned(0, 28, deployments=("ssmw", "aggregathor"), detector="distance")
        assert case.deployment == "ssmw" and case.budget == "beyond"
        report, found = violations(case)
        assert report.passed, found
        assert report.error is None and not report.diverged

    def test_attacker_reputation_is_not_judged_on_a_run_that_died_early(self):
        """The run times out in round 2, inside the book's warm-up, with the
        attacker's suspicion still at zero."""
        case = pinned(0, 55, detector="variance")
        assert case.deployment == "ssmw" and case.budget == "beyond"
        report, found = violations(case)
        assert report.passed, found
        assert report.error == "TimeoutError"


class TestOpenDetectionFindings:
    """Two ``attacker-reputation`` findings with a detector under hedged pulls,
    pinned until the oracle or the detector is settled: judge only attackers
    the book scored (``RoundResult.gradient_sources`` names them), or make the
    detector see every attacker."""

    @pytest.mark.xfail(
        strict=True,
        reason="a reserve attacker is never scored and an honest worker is evicted",
    )
    def test_mad_with_an_attacker_held_in_reserve(self):
        case = pinned(1, 135, detector="mad", resilience=SUPERVISED)
        assert case.deployment == "ssmw"
        report, found = violations(case)
        assert "attacker-reputation" not in {violation["invariant"] for violation in found}, found

    @pytest.mark.xfail(strict=True, reason="a scored attacker ends at 0.02")
    def test_variance_with_int8_delta(self):
        case = pinned(2026, 95, detector="variance", resilience=SUPERVISED, wire_format="int8+delta")
        assert case.deployment == "ssmw"
        report, found = violations(case)
        assert "attacker-reputation" not in {violation["invariant"] for violation in found}, found
