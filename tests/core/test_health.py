"""Unit tests for the liveness detector and the node supervisor.

Exercises the accrual state machine (healthy -> suspect -> dead and back),
the quorum-safety guard on dead declarations (asked of the
:class:`Membership` the detector was given), what a dead declaration does and
does not do to a detector's reputation book, the health payload
contract, and the supervisor's restart-budget patrol against fake backends.
"""

from __future__ import annotations

import pytest

from repro.core.health import (
    COHORT_MIN_SAMPLES,
    DEAD,
    HEALTHY,
    REFUSED_WEIGHT,
    SLOW_WEIGHT,
    SUCCESS_DECAY,
    SUSPECT,
    HealthEvent,
    LivenessDetector,
    NodeSupervisor,
)
from repro.detection.membership import EVICTED, Membership
from repro.exceptions import ConfigurationError

pytestmark = pytest.mark.resilience

ROSTER = [f"w{i}" for i in range(6)]


def make_detector(roster=ROSTER, book=None):
    """A detector over a fresh asynchronous median membership with f=1."""
    return LivenessDetector(
        Membership(roster, declared_f=1, gar_name="median", slack=1), book=book
    )


class TestAccrual:
    def test_idle_round_yields_no_payload(self):
        detector = make_detector()
        assert detector.finish_round(0) is None

    def test_refused_dials_walk_suspect_then_dead(self):
        detector = make_detector()
        detector.observe_refused("w0")  # score 2.0 == SUSPECT_AFTER
        payload = detector.finish_round(0)
        assert payload["statuses"]["w0"] == SUSPECT
        assert [e["action"] for e in payload["events"]] == [SUSPECT]

        detector.observe_refused("w0")
        detector.observe_refused("w0")  # score 6.0 == DEAD_AFTER
        payload = detector.finish_round(1)
        assert payload["statuses"]["w0"] == DEAD
        assert payload["dead"] == ["w0"]
        membership = detector.membership
        assert membership.cause("w0") == DEAD
        # The dead peer is excluded, async quorum keeps the declared f as
        # slack over the survivors.
        assert "w0" not in membership.active()
        assert membership.quorum() == len(ROSTER) - 1 - 1

    def test_successes_decay_suspicion_and_emit_recovered(self):
        detector = make_detector()
        detector.observe_timeout("w1")
        detector.observe_timeout("w1")  # 3.0 -> suspect
        assert detector.finish_round(0)["statuses"]["w1"] == SUSPECT
        detector.observe_success("w1", 0.001)  # 1.5
        payload = detector.finish_round(1)
        assert payload["statuses"]["w1"] == HEALTHY
        assert [e["action"] for e in payload["events"]] == ["recovered"]

    def test_straggling_success_counts_as_slow_evidence(self):
        detector = make_detector()
        for index in range(COHORT_MIN_SAMPLES):
            detector.observe_success(ROSTER[1 + index % 4], 0.001)
        # Cohort median is 0.001; SLOW_FACTOR (8x) that is the slow bar.
        detector.observe_success("w0", 0.05)
        assert detector.scores["w0"] == pytest.approx(SLOW_WEIGHT)
        # A normally fast reply decays instead.
        detector.observe_success("w0", 0.001)
        assert detector.scores["w0"] == pytest.approx(
            SLOW_WEIGHT * SUCCESS_DECAY
        )

    def test_each_ledger_is_judged_against_its_own_cohort(self):
        # Slow model pulls must not raise the bar a gradient pull is judged
        # by: with one shared cohort the median below would be 1.0, and the
        # worker's 0.05 reply would count as a normal success.
        servers = [f"server-{i}" for i in range(4)]
        detector = LivenessDetector(
            Membership(ROSTER, declared_f=1, gar_name="median", slack=1),
            replicas=Membership(servers, declared_f=1, gar_name="median", slack=1, floor=2),
        )
        for index in range(COHORT_MIN_SAMPLES):
            detector.observe_success(ROSTER[1 + index % 4], 0.001)
            detector.observe_success(servers[index % 4], 1.0)
        detector.observe_success("w0", 0.05)
        assert detector.scores["w0"] == pytest.approx(SLOW_WEIGHT)
        detector.observe_success("server-0", 1.0)
        assert detector.scores["server-0"] == 0.0

    def test_unknown_peers_are_silently_ignored(self):
        detector = make_detector()
        detector.observe_success("stranger", 1.0)
        detector.observe_refused("stranger")
        detector.observe_timeout("stranger")
        assert detector.finish_round(0) is None


class TestQuorumSafetyGuard:
    def test_declaration_that_starves_the_gar_degrades_to_suspect(self):
        # 4 workers, async median with f=1: minimum_inputs(1) = 3, and a
        # declaration leaves quorum 4-1-1 = 2 < 3 — blocked.
        detector = make_detector(roster=["w0", "w1", "w2", "w3"])
        for _ in range(4):
            detector.observe_refused("w0")  # score 8.0, well past DEAD_AFTER
        payload = detector.finish_round(0)
        assert payload["statuses"]["w0"] == SUSPECT
        assert payload["dead"] == []
        assert detector.membership.active() == ("w0", "w1", "w2", "w3")

    def test_declarations_stop_exactly_at_the_quorum_floor(self):
        # 6 workers: first two declarations keep quorum >= 3, the third
        # (quorum would be 6-3-1 = 2) is blocked.
        detector = make_detector()
        for peer in ("w0", "w1", "w2"):
            for _ in range(3):
                detector.observe_refused(peer)
        payload = detector.finish_round(0)
        assert payload["dead"] == ["w0", "w1"]
        assert payload["statuses"]["w2"] == SUSPECT

    def test_replica_death_that_starves_the_model_gar_stays_suspect(self):
        # 4 replicas, async median with f_ps=1: 3 rows (2 peers + own), and a
        # death would leave 2 < minimum_inputs(1) = 3 — blocked, the replica
        # keeps being pulled.  A worker death goes to the other ledger.
        servers = [f"server-{i}" for i in range(4)]
        replicas = Membership(servers, declared_f=1, gar_name="median", slack=1, floor=2)
        detector = LivenessDetector(
            Membership(ROSTER, declared_f=1, gar_name="median", slack=1), replicas=replicas
        )
        for peer in ("server-0", "w0"):
            for _ in range(3):
                detector.observe_refused(peer)
        payload = detector.finish_round(0)
        assert payload["statuses"]["server-0"] == SUSPECT
        assert payload["dead"] == ["w0"]
        assert replicas.active() == tuple(servers)
        assert detector.membership.cause("w0") == DEAD

    def test_request_dead_unknown_peer_is_a_config_error(self):
        with pytest.raises(ConfigurationError):
            make_detector().request_dead("stranger")

    def test_requested_declaration_resolves_at_round_boundary(self):
        detector = make_detector()
        detector.request_dead("w5", reason="restart-budget")
        payload = detector.finish_round(3)
        assert payload["dead"] == ["w5"]
        event = payload["events"][0]
        assert event["action"] == DEAD and event["detail"] == "restart-budget"


class FakeBook:
    """Just enough of ReputationBook for the liveness feed."""

    def __init__(self):
        self.scores = {name: 0.0 for name in ROSTER}
        self.evict_threshold = 4.0


class TestDetectionDelegation:
    """With a detector attached too: a dead peer is excluded, never evicted."""

    def test_dead_declarations_route_through_force_evict(self):
        # Re-pinned: a dead declaration no longer routes through the
        # manager's force_evict — it is an exclusion with cause ``dead`` that
        # spends none of the Byzantine budget.
        detector = make_detector(book=FakeBook())
        for _ in range(3):
            detector.observe_refused("w0")
        payload = detector.finish_round(2)
        assert payload["dead"] == ["w0"]
        membership = detector.membership
        assert membership.cause("w0") == DEAD
        assert membership.excluded(EVICTED) == ()
        assert membership.effective_f() == 1

    def test_refused_delegation_keeps_the_peer_suspect(self):
        # Re-pinned: the refusal now comes from the membership's own guard,
        # and an eviction cap already spent does not cause it — the dead are
        # not counted against ``<= f``.
        detector = make_detector(book=FakeBook())
        membership = detector.membership
        assert membership.exclude("w5", EVICTED)  # f=1: the budget is spent
        for _ in range(3):
            detector.observe_refused("w0")
        assert detector.finish_round(2)["dead"] == ["w0"]
        for peer in ("w1", "w2", "w3"):
            for _ in range(3):
                detector.observe_refused(peer)
        # minimum_inputs(effective f = 0) is 1: w1 and w2 may go (quorum
        # 6-4-1 = 1), w3 would leave nothing to wait for.
        payload = detector.finish_round(3)
        assert payload["dead"] == ["w0", "w1", "w2"]
        assert payload["statuses"]["w3"] == SUSPECT
        assert membership.excluded(EVICTED) == ("w5",)

    def test_liveness_evidence_feeds_the_reputation_book(self):
        book = FakeBook()
        detector = make_detector(book=book)
        detector.observe_timeout("w1")
        detector.observe_timeout("w1")  # 3.0: suspect
        detector.finish_round(0)
        assert book.scores["w1"] == pytest.approx(3.0)
        # The feed is capped at the eviction threshold (weights-only) and
        # never lowers an existing score.
        for _ in range(4):
            detector.observe_refused("w1")
        detector.finish_round(1)
        assert book.scores["w1"] == pytest.approx(4.0)


class TestTracePayload:
    def test_event_dict_omits_empty_detail(self):
        with_detail = HealthEvent(0, "respawn", "w0", detail="ok").to_dict()
        without = HealthEvent(0, SUSPECT, "w0", score=2.0).to_dict()
        assert with_detail["detail"] == "ok"
        assert "detail" not in without
        assert without["score"] == 2.0


# --------------------------------------------------------------------- #
# The supervisor, against fakes
# --------------------------------------------------------------------- #
class FakeBackend:
    def __init__(self, nodes):
        self.running = {name: True for name in nodes}
        self.snapshots = []
        self.revives = []
        self.revive_ok = True

    def is_running(self, node):
        return self.running[node]

    def snapshot_now(self, node):
        self.snapshots.append(node)
        return True

    def revive(self, node):
        self.revives.append(node)
        self.running[node] = self.revive_ok
        return self.revive_ok


class FakeFailures:
    def __init__(self):
        self.crashed = set()

    def is_crashed(self, node):
        return node in self.crashed


def make_supervisor(**overrides):
    backend = FakeBackend(ROSTER + ["server-0"])
    failures = FakeFailures()
    health = make_detector()
    kwargs = dict(health=health, restart_budget=2, restart_window=8)
    kwargs.update(overrides)
    supervisor = NodeSupervisor(backend, failures, ROSTER + ["server-0"], **kwargs)
    return supervisor, backend, failures, health


class TestNodeSupervisor:
    def test_running_hosts_are_snapshotted_not_restarted(self):
        supervisor, backend, _, _ = make_supervisor()
        assert supervisor.patrol(0) == []
        assert backend.revives == []
        assert set(backend.snapshots) == set(ROSTER + ["server-0"])

    def test_scripted_crashes_are_left_to_the_director(self):
        supervisor, backend, failures, _ = make_supervisor()
        backend.running["w0"] = False
        failures.crashed.add("w0")
        assert supervisor.patrol(0) == []
        assert backend.revives == []

    def test_unscripted_death_is_respawned_and_reported(self):
        supervisor, backend, _, health = make_supervisor()
        backend.running["w0"] = False
        fired = supervisor.patrol(3)
        assert backend.revives == ["w0"]
        assert supervisor.restarts("w0") == 1
        assert [e.action for e in fired] == ["respawn"]
        # The event reaches the health payload at the round boundary.
        payload = health.finish_round(3)
        assert payload["events"][0]["action"] == "respawn"
        assert payload["events"][0]["target"] == "w0"

    def test_budget_exhaustion_gives_up_and_declares_dead(self):
        supervisor, backend, _, health = make_supervisor(restart_budget=1)
        backend.running["w0"] = False
        supervisor.patrol(0)  # spends the single budgeted respawn
        backend.running["w0"] = False
        fired = supervisor.patrol(1)
        assert [e.action for e in fired] == ["gave-up"]
        assert supervisor.gave_up("w0")
        payload = health.finish_round(1)
        assert "w0" in payload["dead"]
        # Given-up nodes are never patrolled again.
        assert supervisor.patrol(2) == []
        assert backend.revives == ["w0"]

    def test_budget_refreshes_outside_the_window(self):
        supervisor, backend, _, _ = make_supervisor(restart_budget=1, restart_window=4)
        backend.running["w0"] = False
        supervisor.patrol(0)
        backend.running["w0"] = False
        fired = supervisor.patrol(10)  # round 0 fell out of the window
        assert [e.action for e in fired] == ["respawn"]
        assert supervisor.restarts("w0") == 2

    def test_given_up_server_cannot_shrink_gradient_membership(self):
        supervisor, backend, _, health = make_supervisor(restart_budget=0)
        backend.running["server-0"] = False
        fired = supervisor.patrol(0)
        assert [e.action for e in fired] == ["gave-up"]
        payload = health.finish_round(0)
        assert payload["dead"] == []  # no model phase: no replica ledger to shrink

    def test_given_up_server_leaves_the_replica_membership(self):
        replicas = Membership(
            ["server-0", "server-1", "server-2"], declared_f=0, gar_name="median", floor=2
        )
        health = LivenessDetector(
            Membership(ROSTER, declared_f=1, gar_name="median", slack=1), replicas=replicas
        )
        supervisor, backend, _, _ = make_supervisor(restart_budget=0, health=health)
        backend.running["server-0"] = False
        supervisor.patrol(0)
        payload = health.finish_round(0)
        assert payload["dead"] == ["server-0"]
        assert replicas.excluded(DEAD) == ("server-0",)
        assert health.membership.active() == tuple(ROSTER)

    def test_failed_revive_feeds_refused_evidence(self):
        supervisor, backend, _, health = make_supervisor()
        backend.revive_ok = False
        backend.running["w0"] = False
        supervisor.patrol(0)
        assert health.scores["w0"] == pytest.approx(REFUSED_WEIGHT)

    def test_invalid_budget_rejected(self):
        backend = FakeBackend(ROSTER)
        with pytest.raises(ConfigurationError):
            NodeSupervisor(backend, FakeFailures(), ROSTER, restart_budget=-1)
