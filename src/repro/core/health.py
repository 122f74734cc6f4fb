"""Liveness detection and node supervision: the self-healing runtime core.

Two cooperating pieces turn the failure *injection* machinery into failure
*tolerance* machinery (see ``docs/resilience.md``):

* :class:`LivenessDetector` — a heartbeat/φ-accrual-style accrual over
  per-call outcomes.  The transport feeds it every fan-out result (success
  latency, refused dial, timeout/loss); suspicion accrues on bad outcomes
  and halves on good ones, classifying each peer ``healthy`` / ``suspect`` /
  ``dead``.  A dead declaration is an exclusion, cause ``dead``, asked of the
  deployment's :class:`~repro.detection.membership.Membership` the peer
  belongs to — the workers', or the server replicas' where a model phase
  pulls them — under the same quorum-safety guard detection evictions go
  through: one that would starve the GAR degrades to ``suspect``.  A dead
  peer is not an evicted one: it leaves the pull set but spends none of the
  Byzantine budget.  When a detector is attached too, liveness evidence also
  feeds its :class:`~repro.detection.reputation.ReputationBook` (suspect and
  dead workers are down-weighted).
* :class:`NodeSupervisor` — the process-backend watchdog.  Each round it
  patrols the host fleet: a host that is down *without* a scripted crash
  (unscripted SIGKILL, OOM, wedge) is respawned from its last state
  snapshot, under a restart budget of ``RESTART_BUDGET`` respawns per
  ``RESTART_WINDOW`` rounds; past the budget the node is declared dead and
  its membership — a server's is the replicas' — shrinks, guard permitting.
  Running hosts are snapshotted each patrol so a respawn restores
  near-current state.

Everything here is opt-in: nothing is constructed unless
``ClusterConfig.resilience`` enables a feature, so every pre-resilience
golden trace stays byte-identical.  Health payloads (and so trace keys)
follow the detection precedent — present only on rounds where the detector
was active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.detection.membership import DEAD, Membership
from repro.detection.reputation import EVICT_THRESHOLD
from repro.exceptions import ConfigurationError

#: Peer classifications, from best to worst; the worst is the membership cause.
HEALTHY = "healthy"
SUSPECT = "suspect"

# Accrual tuning.  Constants, not constructor arguments: one value each is in
# use, and the hedged-pull fixture pins the scores they produce.
#: Suspicion score at which a peer classifies as suspect / is declared dead.
SUSPECT_AFTER = 2.0
DEAD_AFTER = 6.0
#: What each kind of bad evidence adds to a peer's suspicion ...
REFUSED_WEIGHT = 2.0
TIMEOUT_WEIGHT = 1.5
SLOW_WEIGHT = 1.0
#: ... and what a normal success multiplies it by.
SUCCESS_DECAY = 0.5
#: A success counts as slow when its latency exceeds ``SLOW_FACTOR`` times the
#: median of the last ``COHORT_WINDOW`` success latencies (all peers of its
#: ledger: workers, or server replicas), once
#: at least ``COHORT_MIN_SAMPLES`` of them exist.
SLOW_FACTOR = 8.0
COHORT_WINDOW = 256
COHORT_MIN_SAMPLES = 8

# Supervision budget, constants for the same reason.
#: A node is respawned while fewer than ``RESTART_BUDGET`` respawns happened in
#: the last ``RESTART_WINDOW`` rounds; past that it is declared dead.
RESTART_BUDGET = 2
RESTART_WINDOW = 8


@dataclass(frozen=True)
class HealthEvent:
    """One typed health transition or supervisor action."""

    round_index: int
    #: "suspect" | "recovered" | "dead" | "respawn" | "gave-up"
    action: str
    target: str
    score: float = 0.0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "round": int(self.round_index),
            "action": self.action,
            "target": self.target,
            "score": round(float(self.score), 6),
        }
        if self.detail:
            data["detail"] = self.detail
        return data


class LivenessDetector:
    """Accrual failure detection over per-call outcomes.

    Suspicion is a non-negative score per peer: refused dials and
    timeouts/losses add to it, successes halve it, and a success whose
    latency towers over the cohort's recent median (``SLOW_FACTOR`` times)
    counts as slow evidence instead of a recovery — that is what lets a
    straggler storm surface as ``suspect``/``dead`` peers even though every
    reply eventually arrives.  Thresholds map scores to statuses with the
    usual accrual shape: brief hiccups decay away, persistent silence
    crosses ``SUSPECT_AFTER`` and then ``DEAD_AFTER``.

    The detector is fed from the coordinating thread only (the transport's
    fan-out classification loop), so it needs no locking.
    """

    def __init__(self, membership: Membership, book=None, replicas: Optional[Membership] = None):
        self.membership = membership
        ledgers = [ledger for ledger in (membership, replicas) if ledger is not None]
        #: Peer -> the ledger its dead declaration goes to: the workers'
        #: membership, then (msmw, decentralized) the server replicas'.
        self._ledger: Dict[str, Membership] = {
            name: ledger for ledger in ledgers for name in ledger.roster
        }
        self.roster: Tuple[str, ...] = tuple(self._ledger)
        #: Ledger -> recent success latencies of its peers: a model pull is
        #: never the yardstick of a gradient pull, nor the reverse.
        self._cohort: Dict[Membership, List[float]] = {ledger: [] for ledger in ledgers}
        #: The detector's :class:`~repro.detection.reputation.ReputationBook`,
        #: when one is attached: liveness evidence down-weights there too.
        self.book = book

        self.scores: Dict[str, float] = {name: 0.0 for name in self.roster}
        self._status: Dict[str, str] = {name: HEALTHY for name in self.roster}
        self._observed_round = False
        self._pending_events: List[HealthEvent] = []
        self._requested_dead: List[Tuple[str, str]] = []  # (target, reason)

    # ------------------------------------------------------------------ #
    # Per-call observations (fed by Transport._note_health)
    # ------------------------------------------------------------------ #
    def observe_success(self, peer: str, latency: float) -> None:
        """A usable reply: decays suspicion — unless the reply straggled."""
        if peer not in self.scores:
            return
        self._observed_round = True
        cohort = self._cohort[self._ledger[peer]]
        reference = sorted(cohort)[len(cohort) // 2] if len(cohort) >= COHORT_MIN_SAMPLES else None
        cohort.append(float(latency))
        if len(cohort) > COHORT_WINDOW:
            del cohort[: len(cohort) - COHORT_WINDOW]
        if reference is not None and latency > SLOW_FACTOR * reference:
            self.scores[peer] += SLOW_WEIGHT
        else:
            self.scores[peer] *= SUCCESS_DECAY

    def observe_refused(self, peer: str) -> None:
        """A refused/reset dial or crashed-at-plan peer: strong evidence."""
        if peer not in self.scores:
            return
        self._observed_round = True
        self.scores[peer] += REFUSED_WEIGHT

    def observe_timeout(self, peer: str) -> None:
        """A lost, silent or deadline-expired reply: slow-or-dead evidence."""
        if peer not in self.scores:
            return
        self._observed_round = True
        self.scores[peer] += TIMEOUT_WEIGHT

    # ------------------------------------------------------------------ #
    # Supervisor hooks
    # ------------------------------------------------------------------ #
    def note_event(self, event: HealthEvent) -> None:
        """Queue an externally produced event (supervisor respawn/gave-up)."""
        self._pending_events.append(event)

    def request_dead(self, peer: str, reason: str = "liveness") -> None:
        """Ask for ``peer`` to be declared dead at the next round boundary.

        The declaration is resolved in :meth:`finish_round` under the
        membership's quorum-safety guard.
        """
        if peer not in self.scores:
            raise ConfigurationError(f"cannot declare unknown peer '{peer}' dead")
        self._requested_dead.append((peer, reason))

    def statuses(self) -> Dict[str, str]:
        return {name: self._status[name] for name in self.roster}

    # ------------------------------------------------------------------ #
    # End-of-round classification
    # ------------------------------------------------------------------ #
    def finish_round(self, round_index: int) -> Optional[Dict[str, Any]]:
        """Classify every peer and emit this round's health payload.

        Returns ``None`` when the detector saw nothing this round (no
        observations, no supervisor events, no pending declarations) so
        resilience-enabled-but-idle rounds do not bloat results.  Otherwise
        the payload carries per-peer statuses and scores, the dead set and
        the round's typed events (supervisor actions included); it becomes
        the round's ``RoundResult.health``.
        """
        pending, self._pending_events = self._pending_events, []
        requested, self._requested_dead = self._requested_dead, []
        observed, self._observed_round = self._observed_round, False
        if not observed and not pending and not requested:
            return None

        events: List[HealthEvent] = list(pending)
        for peer, reason in requested:
            if self._ledger[peer].exclude(peer, DEAD):
                events.append(
                    HealthEvent(round_index, DEAD, peer, self.scores[peer], detail=reason)
                )

        for name in self.roster:
            previous = self._status[name]
            if self._ledger[name].cause(name) == DEAD:
                status = DEAD
            elif self.scores[name] >= DEAD_AFTER:
                # Guard refused: stay suspect (down-weighted), keep pulling.
                status = DEAD if self._ledger[name].exclude(name, DEAD) else SUSPECT
            elif self.scores[name] >= SUSPECT_AFTER:
                status = SUSPECT
            else:
                status = HEALTHY
            if status != previous:
                action = status if status != HEALTHY else "recovered"
                events.append(HealthEvent(round_index, action, name, self.scores[name]))
            self._status[name] = status

        # Liveness evidence for the reputation book: an unresponsive peer is
        # down-weighted in aggregation even before (or without) eviction.
        book = self.book
        if book is not None:
            for name in self.roster:
                if self._status[name] in (SUSPECT, DEAD) and name in book.scores:
                    book.scores[name] = max(
                        book.scores[name],
                        float(min(self.scores[name], EVICT_THRESHOLD)),
                    )

        return {
            "statuses": {name: self._status[name] for name in self.roster},
            "scores": {name: round(float(self.scores[name]), 6) for name in self.roster},
            "dead": [name for name in self.roster if self._status[name] == DEAD],
            "events": [event.to_dict() for event in events],
        }


class NodeSupervisor:
    """Process-backend watchdog: respawn unscripted host deaths, on a budget.

    ``patrol`` runs at every round boundary (before the scenario director so
    scripted events stay authoritative).  For each supervised node:

    * a host down while ``failures.is_crashed`` — a *scripted* crash — is
      left alone: the scenario director owns that recovery;
    * a host down without a scripted crash is an unscripted death: it is
      respawned from its last state snapshot via
      :meth:`~repro.network.rpc.SocketBackend.revive`, as long as fewer than
      ``RESTART_BUDGET`` respawns happened in the last ``RESTART_WINDOW``
      rounds;
    * past the budget the node is declared dead through the liveness
      detector (quorum-safety guarded) and never respawned again;
    * running hosts are snapshotted every round so the next respawn
      restores near-current state.
    """

    def __init__(
        self,
        backend,
        failures,
        roster: Sequence[str],
        *,
        health: Optional[LivenessDetector] = None,
    ) -> None:
        self.backend = backend
        self.failures = failures
        self.roster: Tuple[str, ...] = tuple(roster)
        self.health = health
        self._restarts: Dict[str, List[int]] = {name: [] for name in self.roster}
        self._given_up: set = set()

    # ------------------------------------------------------------------ #
    def restarts(self, node_id: str) -> int:
        """Total respawns of ``node_id`` so far (across all windows)."""
        return len(self._restarts.get(node_id, ()))

    def gave_up(self, node_id: str) -> bool:
        return node_id in self._given_up

    def _emit(self, event: HealthEvent) -> None:
        if self.health is not None:
            self.health.note_event(event)

    # ------------------------------------------------------------------ #
    def patrol(self, round_index: int) -> List[HealthEvent]:
        """One round-boundary sweep over the fleet; returns the actions taken."""
        fired: List[HealthEvent] = []
        for node in self.roster:
            if node in self._given_up:
                continue
            if self.failures.is_crashed(node):
                continue  # scripted crash: the director owns the recovery
            if self.backend.is_running(node):
                self.backend.snapshot_now(node)
                continue
            # Unscripted death.  Spend one restart from the window budget —
            # or declare the node dead once the budget is exhausted.
            window_start = round_index - RESTART_WINDOW
            recent = [r for r in self._restarts[node] if r > window_start]
            if len(recent) >= RESTART_BUDGET:
                self._given_up.add(node)
                event = HealthEvent(
                    round_index,
                    "gave-up",
                    node,
                    detail=f"{len(recent)} restarts in {RESTART_WINDOW} rounds",
                )
                self._emit(event)
                fired.append(event)
                # A given-up server leaves the replica membership where one
                # exists (msmw, decentralized); elsewhere it is only an event.
                if self.health is not None and node in self.health.roster:
                    self.health.request_dead(node, reason="restart-budget")
                continue
            ok = self.backend.revive(node)
            self._restarts[node].append(round_index)
            event = HealthEvent(
                round_index, "respawn", node, detail="ok" if ok else "failed"
            )
            self._emit(event)
            fired.append(event)
            if self.health is not None and not ok:
                self.health.observe_refused(node)
        return fired
