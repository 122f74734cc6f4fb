"""Detection under fuzz: the reputation invariants over generated chaos.

Overlays ``detector="distance"`` onto generated ssmw/aggregathor timelines —
the same specs the plain campaigns run, so the generator's RNG stream is
untouched — and drives them through the :class:`InvariantChecker`, which
activates two detection-specific invariants:

* **no-calm-eviction** — a run with no attacking workers must end with an
  empty evicted set (honest-only mini-batch noise never crosses the
  membership bar; with the envelope normalisation a zero declared budget is
  *structurally* silent),
* **attacker-reputation** — under a steady flagrant attack within budget,
  every attacker's final decayed suspicion exceeds every honest worker's.

All the pre-existing invariants (exact quorums, liveness, convergence,
determinism, ...) keep running on the overlaid cases, so this also checks
that eviction-driven quorum shrink and crash/straggler/partition chaos
compose: an eviction must never eat the reply slack that keeps a round live
while workers are down.

The same pools run once more with the supervised resilience dict layered on
top (:class:`TestJointLedger`) — the detector x resilience combination no
campaign samples — so evictions and liveness ``dead`` declarations land in
one membership and the quorum oracle replays both event streams together.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.fuzz import FuzzCase, InvariantChecker, ScenarioGenerator
from repro.core.scenario import ScenarioSpec

pytestmark = [pytest.mark.fuzz, pytest.mark.detection]

#: Pinned seed: the overlaid campaign below is deterministic forever.
DETECTION_SEED = 7023
#: Generator indices scanned while collecting calm / steady-attack cases
#: (steady flagrant attacks are rare — ~4% of generated cases).
SCAN = 200

_FLAGRANT = ("reversed", "random")
_TOGGLES = ("attack_start", "attack_stop", "byzantine_count")


def overlay_detector(case: FuzzCase, detector: str = "distance", **config_overrides) -> FuzzCase:
    """The same generated case, with online detection switched on."""
    config = dict(case.spec.config)
    config["detector"] = detector
    config.update(config_overrides)
    spec = ScenarioSpec(
        name=f"{case.spec.name}-{detector}",
        description=f"{case.spec.description} + detector '{detector}'",
        config=config,
        events=list(case.spec.events),
    )
    return dataclasses.replace(case, spec=spec)


def _collect_cases():
    """Split the first SCAN generated cases into the three test pools."""
    generator = ScenarioGenerator(seed=DETECTION_SEED, deployments=("ssmw", "aggregathor"))
    calm, zero_budget, attacked = [], [], []
    for index in range(SCAN):
        case = generator.case(index)
        if case.budget == "beyond":
            continue  # loud-failure cases are covered by the plain campaigns
        config = case.spec.config
        if int(config.get("num_attacking_workers", 0)) == 0:
            calm.append(overlay_detector(case))
            # A zero-budget variant needs a stall-safe timeline: with f = 0
            # the asynchronous quorum is all n workers, so crash / partition
            # / message-loss events would starve it (stragglers just slow it).
            if all(
                event.action in ("straggler", "clear_straggler")
                for event in case.spec.events
            ):
                zero_budget.append(
                    overlay_detector(
                        case, num_byzantine_workers=0, num_attacking_workers=0
                    )
                )
        elif config.get("worker_attack") in _FLAGRANT and not any(
            event.action in _TOGGLES for event in case.spec.events
        ):
            attacked.append(overlay_detector(case))
    return calm[:8], zero_budget[:4], attacked[:6]


_CALM, _ZERO_BUDGET, _ATTACKED = _collect_cases()


@pytest.fixture(scope="module")
def checker():
    return InvariantChecker()


class TestCalmRuns:
    def test_pool_is_nonempty(self):
        assert len(_CALM) >= 3, "seed produced too few attack-free cases"
        assert len(_ZERO_BUDGET) >= 2, "seed produced too few stall-safe calm cases"

    @pytest.mark.parametrize("case", _CALM, ids=lambda c: c.name)
    def test_evictions_stay_in_budget_and_decay(self, checker, case):
        report = checker.check(case, determinism=False)
        details = [v.to_dict() for v in report.violations]
        assert report.passed, f"{case.name}: {details}"

    @pytest.mark.parametrize("case", _ZERO_BUDGET, ids=lambda c: c.name)
    def test_zero_budget_never_evicts(self, checker, case):
        """With f = 0 the envelope makes every score 0: nobody is ever evicted."""
        report = checker.check(case, determinism=False)
        details = [v.to_dict() for v in report.violations]
        assert report.passed, f"{case.name}: {details}"


class TestSteadyAttacks:
    def test_pool_is_nonempty(self):
        assert len(_ATTACKED) >= 3, "seed produced too few steady flagrant attacks"

    @pytest.mark.parametrize("case", _ATTACKED, ids=lambda c: c.name)
    def test_attacker_reputation_sinks_below_honest(self, checker, case):
        report = checker.check(case, determinism=False)
        details = [v.to_dict() for v in report.violations]
        assert report.passed, f"{case.name}: {details}"


#: The self-healing options ``repro fuzz --supervised`` layers on.
SUPERVISED = {"retry": True, "hedge": True, "supervise": True}

#: ``fuzz-7023-141-aggregathor-at-distance`` is the case that needs more than
#: one follow-up wave: its last round's follow-up goes to a reserve that is
#: partitioned too, and only the next reserve fills the quorum.
_JOINT = [
    pytest.param(overlay_detector(case, resilience=SUPERVISED), id=case.name)
    for case in _CALM + _ZERO_BUDGET + _ATTACKED
]


class TestJointLedger:
    """Detector and resilience on one run: evictions and deaths share a ledger."""

    @pytest.mark.resilience
    @pytest.mark.parametrize("case", _JOINT)
    def test_every_invariant_holds_with_resilience_layered_on(self, checker, case):
        report = checker.check(case, determinism=False)
        details = [v.to_dict() for v in report.violations]
        assert report.passed, f"{case.name}: {details}"

    @pytest.mark.resilience
    def test_the_pool_exercises_both_causes(self):
        """At least one joint case evicts and at least one declares a worker
        dead with rounds left to run, so the joint quorum oracle is not
        vacuous (the zero-budget straggler case: ``dead`` at round 7 of 12 —
        an exclusion the f = 0 eviction cap used to refuse)."""
        from repro.core.fuzz import run_spec

        evicting = dying = 0
        for param in _JOINT:
            if param.marks:
                continue
            outcome = run_spec(param.values[0].spec)
            last = outcome.rounds_run - 1
            evicting += any(
                event["action"] == "evict"
                for result in outcome.results
                for event in (result.detection or {}).get("events", ())
            )
            dying += any(
                event["action"] == "dead" and event["round"] < last
                for result in outcome.results
                for event in (result.health or {}).get("events", ())
            )
        assert evicting >= 3 and dying >= 1


class TestDetectionDeterminism:
    """Serial rerun + threaded executor reproduce detection traces exactly."""

    @pytest.mark.parametrize("case", _ATTACKED[:2] + _CALM[:1], ids=lambda c: c.name)
    def test_traces_replay_byte_identical(self, checker, case):
        report = checker.check(case, determinism=True, cross_executor=True)
        details = [v.to_dict() for v in report.violations]
        assert report.passed, f"{case.name}: {details}"
