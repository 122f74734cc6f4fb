"""Unit tests for the :class:`DetectionManager` and the quorum safety of its decisions.

Every transition the manager decides is asked of the :class:`Membership` it
was given, which owns the two guarantees the round engine relies on:

* **quorum safety** — an eviction is allowed only while the GAR keeps at
  least ``minimum_inputs(effective f)`` usable replies; at the floor the
  decision degrades to down-weighting,
* **eviction budget** — at most ``declared_f`` workers are ever evicted: an
  (f+1)-th eviction would provably remove an honest worker, and a zero
  budget never evicts at all.

Asynchronous quorums keep the *declared* budget as reply slack (crashes and
lies both spend from ``f``), so each eviction shrinks the quorum by exactly
one — the rounds/sec gain the benchmark measures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.manager import DetectionManager
from repro.detection.membership import EVICTED, Membership
from repro.exceptions import ConfigurationError

pytestmark = pytest.mark.detection


def make_manager(
    n: int = 6,
    declared_f: int = 2,
    gar: str = "average",
    asynchronous: bool = False,
    detector: str = "distance",
) -> DetectionManager:
    """A manager over a fresh membership sized the way the Controller sizes it."""
    membership = Membership(
        [f"worker-{i}" for i in range(n)],
        declared_f=declared_f,
        gar_name=gar,
        slack=declared_f if asynchronous else 0,
    )
    return DetectionManager(detector=detector, membership=membership)


def flagrant_matrix(manager: DetectionManager, attackers=("worker-0",)):
    """A calm crowd with the named workers replaced by -100x rows."""
    sources = list(manager.membership.active())
    rng = np.random.default_rng(3)
    matrix = rng.normal(1.0, 0.05, size=(len(sources), 10))
    for row, name in enumerate(sources):
        if name in attackers:
            matrix[row] *= -100.0
    return matrix, sources


def drive_rounds(manager: DetectionManager, rounds: int, attackers=("worker-0",)):
    events = []
    for index in range(rounds):
        matrix, sources = flagrant_matrix(manager, attackers)
        manager.weigh_and_observe(matrix, sources)
        payload = manager.finish_round(index)
        if payload is not None:
            events.extend(payload["events"])
    return events


class TestConstruction:
    def test_unknown_gar_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown GAR"):
            make_manager(gar="nonsense")


class TestQuorums:
    def test_sync_quorum_is_the_active_set(self):
        manager = make_manager(n=6, asynchronous=False)
        assert manager.membership.quorum() == 6
        manager.force_evict(0, "worker-0")
        assert manager.membership.quorum() == 5

    def test_async_quorum_keeps_declared_f_as_slack(self):
        """n - declared_f before any eviction, shrinking by exactly one per
        eviction: the slack for crashed/straggling workers is never eaten."""
        manager = make_manager(n=6, declared_f=2, asynchronous=True)
        assert manager.membership.quorum() == 4
        manager.force_evict(0, "worker-0")
        assert manager.membership.quorum() == 3
        assert manager.membership.effective_f() == 1

    def test_evicted_workers_leave_the_pull_set(self):
        manager = make_manager(n=6)
        manager.force_evict(0, "worker-3")
        assert "worker-3" not in manager.membership.active()
        assert len(manager.membership.active()) == 5


class TestEvictionGuards:
    def test_budget_caps_total_evictions(self):
        """declared_f=2: once two workers are evicted the budget is spent —
        the effective f hits 0, which silences scoring entirely (the honest
        envelope no longer licenses *any* suspicion), so a third flagrant
        worker is never evicted no matter how long it keeps attacking."""
        manager = make_manager(n=8, declared_f=2)
        drive_rounds(manager, 6, attackers=("worker-0", "worker-1"))
        assert set(manager.membership.excluded(EVICTED)) == {"worker-0", "worker-1"}
        assert manager.membership.effective_f() == 0
        drive_rounds(manager, 8, attackers=("worker-2",))
        assert set(manager.membership.excluded(EVICTED)) == {"worker-0", "worker-1"}
        assert "worker-2" in manager.membership.active()
        assert manager.book.scores["worker-2"] == 0.0

    def test_budget_caps_forced_evictions_too(self):
        manager = make_manager(n=8, declared_f=2)
        assert manager.force_evict(0, "worker-0") is True
        assert manager.force_evict(0, "worker-1") is True
        assert manager.force_evict(1, "worker-2") is False
        assert manager.membership.cause("worker-2") is None
        # Blocked by the budget, the worker still degrades to down-weighting.
        assert manager.book.scores["worker-2"] >= manager.book.evict_threshold

    def test_zero_budget_never_evicts(self):
        manager = make_manager(n=5, declared_f=0)
        drive_rounds(manager, 8)
        assert manager.membership.excluded(EVICTED) == ()
        # With f=0 the envelope silences scoring entirely.
        assert all(score == 0.0 for score in manager.book.scores.values())

    def test_eviction_at_the_krum_floor_degrades_to_weighting(self):
        """krum needs 2f+3 inputs: with n=4, f=1 any eviction would leave 3
        rows for minimum_inputs(0)=3 — exactly the floor — but with n=3 the
        floor blocks immediately and the striker is only down-weighted."""
        at_floor = make_manager(n=4, declared_f=1, gar="krum")
        assert at_floor.membership.exclude("worker-0", EVICTED) is True  # 3 rows == floor, ok
        below = make_manager(n=3, declared_f=1, gar="krum")
        events = drive_rounds(below, 8)
        assert events == []
        assert below.membership.excluded(EVICTED) == ()
        weights = below.book.weights(below.membership.active())
        assert weights[0] < 0.2

    def test_blocked_forced_eviction_pins_the_score(self):
        manager = make_manager(n=3, declared_f=1, gar="krum")
        assert manager.force_evict(0, "worker-0") is False
        assert manager.membership.cause("worker-0") is None
        assert manager.book.scores["worker-0"] >= manager.book.evict_threshold

    def test_forced_eviction_of_unknown_worker_raises(self):
        manager = make_manager()
        with pytest.raises(ConfigurationError, match="unknown node"):
            manager.force_evict(0, "stranger")


class TestRoundFlow:
    def test_weigh_and_observe_shrinks_the_attacker_row(self):
        manager = make_manager(n=6, declared_f=1)
        matrix, sources = flagrant_matrix(manager)
        weighted = manager.weigh_and_observe(matrix, sources)
        assert weighted.shape == matrix.shape
        assert weighted is not matrix  # a copy, never aliasing the input
        # Attacker down-weighted in the very round it first appears.
        assert np.linalg.norm(weighted[0]) < np.linalg.norm(matrix[0])
        assert np.linalg.norm(weighted[1]) > 0.0

    def test_finish_round_payload_covers_the_whole_roster(self):
        manager = make_manager(n=6, declared_f=1)
        matrix, sources = flagrant_matrix(manager)
        manager.weigh_and_observe(matrix, sources)
        payload = manager.finish_round(0)
        assert set(payload["suspicion"]) == set(manager.roster)
        assert payload["active"] == list(manager.roster)
        assert payload["events"] == []

    def test_finish_round_without_observations_returns_none(self):
        manager = make_manager()
        assert manager.finish_round(0) is None

    def test_forced_events_surface_even_without_observations(self):
        manager = make_manager(n=6, declared_f=1)
        manager.force_evict(3, "worker-2")
        payload = manager.finish_round(3)
        assert [e["action"] for e in payload["events"]] == ["evict"]
        assert payload["events"][0]["forced"] is True
        assert "worker-2" not in payload["active"]

    def test_flagrant_attacker_is_evicted_within_patience(self):
        manager = make_manager(n=6, declared_f=2)
        events = drive_rounds(manager, 5)
        evictions = [e for e in events if e["action"] == "evict"]
        assert [e["target"] for e in evictions] == ["worker-0"]
        assert evictions[0]["round"] <= 3  # warmup + patience, no dithering
        assert manager.membership.effective_f() == 1
