"""Unit tests for the :class:`ReputationBook` hysteresis state machine.

The safety-critical behaviours pinned here:

* eviction requires ``patience`` *consecutive raw strikes* — a single spiky
  mini-batch whose decayed level lingers above the bar cannot evict,
* the hysteresis band (evict at raw >= 8, re-admit at score <= 0.5) makes
  membership changes sticky in both directions: no instant re-admission, no
  oscillation on a borderline worker,
* the membership's guard is an absolute veto — a refused eviction degrades
  to down-weighting with no state corruption.

Who is in or out is recorded by the :class:`Membership` the book is handed;
forced transitions go through the :class:`DetectionManager`, which pins the
book's score (:meth:`ReputationBook.pin`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.manager import DetectionManager
from repro.detection.membership import EVICTED, Membership
from repro.detection.reputation import (
    EVICT_THRESHOLD,
    IDLE_DECAY,
    READMIT_THRESHOLD,
    MembershipEvent,
    ReputationBook,
)
from repro.exceptions import ConfigurationError

pytestmark = pytest.mark.detection

ROSTER = ("worker-0", "worker-1", "worker-2", "worker-3")


def make_book(declared_f: int = len(ROSTER) - 1):
    """A book and the membership it decides over (``average``: no input floor,
    so only the ``declared_f`` budget can veto an eviction)."""
    return ReputationBook(ROSTER), Membership(ROSTER, declared_f=declared_f)


def observe_round(book: ReputationBook, membership: Membership, raw: dict) -> list:
    """One observed round: fold raw scores, then run the state machine."""
    book.observe(raw)
    return book.decide(book.rounds_observed, raw.keys(), membership)


def is_evicted(membership: Membership, name: str) -> bool:
    return membership.cause(name) == EVICTED


def calm(names=ROSTER) -> dict:
    return {name: 0.0 for name in names}


class TestConstruction:
    def test_empty_roster_is_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty roster"):
            ReputationBook(())


class TestScores:
    def test_observe_blends_with_exact_decay(self):
        book, _ = make_book()  # DECAY = 0.6
        book.observe({"worker-0": 10.0, **calm(ROSTER[1:])})
        assert book.scores["worker-0"] == pytest.approx(4.0)
        book.observe({"worker-0": 10.0, **calm(ROSTER[1:])})
        assert book.scores["worker-0"] == pytest.approx(0.6 * 4.0 + 0.4 * 10.0)

    def test_unobserved_workers_decay_at_the_idle_rate(self):
        book, _ = make_book()  # IDLE_DECAY = 0.9
        book.observe({"worker-0": 10.0, **calm(ROSTER[1:])})
        book.observe(calm(ROSTER[1:]))  # worker-0 missing from the pull
        assert book.scores["worker-0"] == pytest.approx(4.0 * 0.9)

    def test_negative_raw_scores_clamp_to_zero(self):
        book, _ = make_book()
        book.observe({"worker-0": -5.0, **calm(ROSTER[1:])})
        assert book.scores["worker-0"] == 0.0

    def test_weights_penalize_suspicion_and_keep_mean_one(self):
        book, _ = make_book()
        book.observe({"worker-0": 9.0, **calm(ROSTER[1:])})
        weights = book.weights(ROSTER)
        assert weights.sum() == pytest.approx(len(ROSTER))
        assert weights[0] < 1.0 < weights[1]
        assert np.all(weights[1:] == weights[1])


class TestEvictionStreaks:
    def test_three_consecutive_strikes_evict(self):
        book, membership = make_book()
        events = []
        for _ in range(3):
            events += observe_round(book, membership, {"worker-0": 20.0, **calm(ROSTER[1:])})
        assert [(e.action, e.target) for e in events] == [("evict", "worker-0")]
        assert is_evicted(membership, "worker-0")
        assert membership.active() == ROSTER[1:]

    def test_interrupted_streak_never_evicts(self):
        """A calm round resets the strike counter — two strikes, a calm
        round, two more strikes is four total but never three consecutive."""
        book, membership = make_book()
        events = []
        for raw in (20.0, 20.0, 0.0, 20.0, 20.0):
            events += observe_round(book, membership, {"worker-0": raw, **calm(ROSTER[1:])})
        assert events == []
        assert not is_evicted(membership, "worker-0")

    def test_lingering_decayed_score_alone_cannot_evict(self):
        """One enormous spike leaves the decayed level above the bar for
        several rounds, but strikes are *raw*-based: calm follow-up rounds
        reset the streak even while the level is still high."""
        book, membership = make_book()
        events = observe_round(book, membership, {"worker-0": 1000.0, **calm(ROSTER[1:])})
        assert book.scores["worker-0"] > EVICT_THRESHOLD
        for _ in range(4):
            events += observe_round(book, membership, {"worker-0": 0.0, **calm(ROSTER[1:])})
        assert events == []
        assert not is_evicted(membership, "worker-0")

    def test_warmup_round_is_strike_free(self):
        """Even a permanently flagrant worker survives warmup + patience
        rounds — eviction can land at the earliest on observed round 3."""
        book, membership = make_book()
        for expected_round in (1, 2):
            assert observe_round(book, membership, {"worker-0": 50.0, **calm(ROSTER[1:])}) == []
            assert book.rounds_observed == expected_round
        events = observe_round(book, membership, {"worker-0": 50.0, **calm(ROSTER[1:])})
        assert [(e.action, e.target) for e in events] == [("evict", "worker-0")]

    def test_vetoed_eviction_degrades_to_weighting(self):
        book, membership = make_book(declared_f=0)  # a spent budget vetoes everything
        for _ in range(5):
            book.observe({"worker-0": 50.0, **calm(ROSTER[1:])})
            events = book.decide(book.rounds_observed, ROSTER, membership)
            assert events == []
        assert not is_evicted(membership, "worker-0")
        assert book.weights(ROSTER)[0] < 0.2  # still heavily down-weighted


class TestReadmission:
    def evicted_book(self):
        book, membership = make_book()
        for _ in range(3):
            observe_round(book, membership, {"worker-0": 20.0, **calm(ROSTER[1:])})
        assert is_evicted(membership, "worker-0")
        return book, membership

    def test_no_instant_readmission_after_eviction(self):
        book, membership = self.evicted_book()
        events = observe_round(book, membership, calm(ROSTER[1:]))
        assert events == []
        assert is_evicted(membership, "worker-0")

    def test_score_decays_idle_until_the_lower_threshold_readmits(self):
        book, membership = self.evicted_book()
        rounds_out = 0
        while is_evicted(membership, "worker-0"):
            score_before = book.scores["worker-0"]
            events = observe_round(book, membership, calm(ROSTER[1:]))
            assert book.scores["worker-0"] == pytest.approx(
                score_before * IDLE_DECAY
            )
            rounds_out += 1
            assert rounds_out < 100, "worker never re-admitted"
            if events:
                assert [(e.action, e.target) for e in events] == [
                    ("readmit", "worker-0")
                ]
                assert book.scores["worker-0"] <= READMIT_THRESHOLD
        assert rounds_out > 3, "re-admission came too fast for the hysteresis band"
        assert membership.active() == ROSTER


class TestForcedTransitions:
    def forcing(self):
        """A manager driving forced transitions over a fresh book + membership."""
        _, membership = make_book()
        return DetectionManager(detector="distance", membership=membership)

    def test_force_evict_pins_score_above_the_band(self):
        manager = self.forcing()
        assert manager.force_evict(2, "worker-1") is True
        assert is_evicted(manager.membership, "worker-1")
        assert manager.book.scores["worker-1"] >= EVICT_THRESHOLD
        [event] = manager.finish_round(2)["events"]
        assert (event["action"], event["target"], event["forced"]) == ("evict", "worker-1", True)

    def test_force_evict_twice_is_a_noop(self):
        manager = self.forcing()
        assert manager.force_evict(2, "worker-1") is True
        assert manager.force_evict(3, "worker-1") is False
        assert len(manager.finish_round(3)["events"]) == 1

    def test_force_readmit_reenters_the_admitted_band(self):
        manager = self.forcing()
        manager.force_evict(2, "worker-1")
        manager.finish_round(2)
        assert manager.force_readmit(5, "worker-1") is True
        [event] = manager.finish_round(5)["events"]
        assert event["action"] == "readmit" and event["forced"]
        assert not is_evicted(manager.membership, "worker-1")
        assert manager.book.scores["worker-1"] <= READMIT_THRESHOLD

    def test_force_readmit_of_active_worker_is_a_noop(self):
        manager = self.forcing()
        assert manager.force_readmit(1, "worker-0") is False
        assert manager.finish_round(1) is None

    def test_unknown_worker_is_a_configuration_error(self):
        book, membership = make_book()
        with pytest.raises(ConfigurationError, match="unknown worker"):
            book.pin("stranger", out=True)
        with pytest.raises(ConfigurationError, match="unknown node"):
            membership.exclude("stranger", EVICTED)
        with pytest.raises(ConfigurationError, match="unknown node"):
            membership.readmit("stranger")

    def test_event_serialization_is_compact(self):
        event = MembershipEvent(4, "evict", "worker-2", 8.1234567, forced=True)
        assert event.to_dict() == {
            "round": 4,
            "action": "evict",
            "target": "worker-2",
            "score": 8.123457,
            "forced": True,
        }
        assert "forced" not in MembershipEvent(1, "readmit", "w", 0.1).to_dict()
