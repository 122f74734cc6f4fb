"""Generated cases that once broke an invariant, replayed as recorded specs.

Each case was drawn from the generator's bare grammar — its drawn feature
layers stripped — with the layer that exposed the defect set by hand, and
recorded whole (config, events and the oracle's metadata) in
``fixtures/pinned_cases.json``.  The replay is therefore the same whatever
the generator's draws become; the ``index`` / ``seed`` of each record only
say where it was first drawn.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.fuzz import FuzzCase, InvariantChecker

pytestmark = pytest.mark.fuzz

RECORDS = json.loads((Path(__file__).parent / "fixtures" / "pinned_cases.json").read_text())


def pinned(name: str) -> FuzzCase:
    """The case recorded for test ``test_<name>``."""
    return FuzzCase.from_dict(RECORDS[name])


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
        case = pinned("decentralized_partition_plus_drop")
        assert case.deployment == "decentralized" and case.budget == "at"
        report, found = violations(case)
        assert report.passed, found
        assert report.error is None

    def test_aggregathor_follow_up_to_a_partitioned_reserve(self):
        # With a detector on, the last round's follow-up goes to a reserve
        # that the partition holds too; only the next reserve fills the quorum.
        case = pinned("aggregathor_follow_up_to_a_partitioned_reserve")
        assert case.deployment == "aggregathor" and case.spec.config["detector"] == "distance"
        report, found = violations(case)
        assert report.passed, found
        assert report.error is None

    def test_msmw_two_crashes_plus_a_dropped_reserve(self):
        case = pinned("msmw_two_crashes_plus_a_dropped_reserve")
        assert case.deployment == "msmw" and case.budget == "at"
        report, found = violations(case)
        assert report.passed, found
        assert report.error is None


class TestDetectionOracle:
    def test_crashing_an_evicted_worker_spends_no_margin(self):
        """The attacker is evicted in round 3; round 4 crashes it and one
        active worker, which is within the margin of one: the run may
        complete."""
        case = pinned("crashing_an_evicted_worker_spends_no_margin")
        assert case.deployment == "ssmw" and case.budget == "beyond"
        report, found = violations(case)
        assert report.passed, found
        assert report.error is None and not report.diverged

    def test_attacker_reputation_is_not_judged_on_a_run_that_died_early(self):
        """The run times out in round 2, inside the book's warm-up, with the
        attacker's suspicion still at zero."""
        case = pinned("attacker_reputation_is_not_judged_on_a_run_that_died_early")
        assert case.deployment == "ssmw" and case.budget == "beyond"
        report, found = violations(case)
        assert report.passed, found
        assert report.error == "TimeoutError"


    def test_an_eviction_in_the_last_round_has_had_no_round_to_decay(self):
        """An attack-free run evicts ``worker-6`` in its last round.  Its final
        suspicion is its eviction score, which the event records to 6
        decimals: no-calm-eviction judges the two at that precision."""
        case = pinned("an_eviction_in_the_last_round_has_had_no_round_to_decay")
        assert case.deployment == "aggregathor" and case.spec.config["detector"] == "distance"
        report, found = violations(case)
        assert report.passed, found


class TestOpenDetectionFindings:
    """``attacker-reputation`` findings, pinned until the oracle or the
    detector is settled.  The first two run under hedged pulls: judge only
    attackers the book scored (``RoundResult.gradient_sources`` names them),
    or make the detector see every attacker.  The third has no resilience:
    once the attacker is evicted, the envelope (the ``(f+1)``-th largest
    distance to Krum's pick) can shrink to near zero, and one honest
    worker's score jumps past the evicted attacker's."""

    @pytest.mark.xfail(
        strict=True,
        reason="a reserve attacker is never scored and an honest worker is evicted",
    )
    def test_mad_with_an_attacker_held_in_reserve(self):
        case = pinned("mad_with_an_attacker_held_in_reserve")
        assert case.deployment == "ssmw"
        report, found = violations(case)
        assert "attacker-reputation" not in {violation["invariant"] for violation in found}, found

    @pytest.mark.xfail(strict=True, reason="a scored attacker ends at 0.02")
    def test_variance_with_int8_delta(self):
        case = pinned("variance_with_int8_delta")
        assert case.deployment == "ssmw"
        report, found = violations(case)
        assert "attacker-reputation" not in {violation["invariant"] for violation in found}, found

    @pytest.mark.xfail(strict=True, reason="an honest worker scores 1.5e4 in the last round")
    def test_distance_once_the_attacker_is_evicted(self):
        case = pinned("distance_once_the_attacker_is_evicted")
        assert case.deployment == "ssmw" and "resilience" not in case.spec.config
        report, found = violations(case)
        assert "attacker-reputation" not in {violation["invariant"] for violation in found}, found
