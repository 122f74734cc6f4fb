"""Per-deployment detection driver: scoring, membership and quorum safety.

One :class:`DetectionManager` is attached to a deployment (as
``Deployment.detection``) when ``ClusterConfig.detector`` names a registered
detector.  The default :class:`~repro.core.session.RoundStrategy` phases
consult it in three places:

* **scatter** — the pull set shrinks to :meth:`pull_workers` and the quorum
  to :meth:`pull_quorum`, so evicted workers cost no messages and no waiting;
* **aggregate** — the detector scores the round's rows against their
  coordinate-wise median, the :class:`ReputationBook` folds the raw scores
  into its decayed levels, and the GAR runs on the reputation-weighted
  matrix (:meth:`weigh_and_observe`) with the *effective* f
  (:meth:`effective_f`) and a right-sized clone — a flagrant outlier is
  down-weighted in the very round it first appears;
* **finish_round** — after the accountant closed the round, evictions /
  re-admissions are decided under the quorum-safety guard: an eviction that
  would leave the GAR with fewer usable replies than
  ``minimum_inputs(effective f)`` is skipped — the worker stays in the pull
  set and is merely down-weighted.

Everything here is deterministic given the round's gradient matrix and source
order, which the transport already fixes across the serial, threaded and
process backends.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.aggregators.base import GAR, GAR_REGISTRY, column_median, scale_rows, sorted_columns
from repro.detection.base import Detector, init_detector
from repro.detection.reputation import MembershipEvent, ReputationBook
from repro.exceptions import ConfigurationError


class DetectionManager:
    """Round-by-round detection state for one deployment."""

    def __init__(
        self,
        *,
        detector: "Detector | str",
        roster: Sequence[str],
        declared_f: int,
        gar_name: str,
        asynchronous: bool = False,
        book: Optional[ReputationBook] = None,
    ) -> None:
        self.detector = init_detector(detector) if isinstance(detector, str) else detector
        self.roster: Tuple[str, ...] = tuple(roster)
        self.declared_f = int(declared_f)
        if gar_name not in GAR_REGISTRY:
            raise ConfigurationError(f"unknown gradient GAR '{gar_name}' for detection")
        self.gar_cls: Type[GAR] = GAR_REGISTRY[gar_name]
        self.asynchronous = bool(asynchronous)
        self.book = book if book is not None else ReputationBook(self.roster)
        #: Every membership event in decision order, across the whole run.
        self.events: List[MembershipEvent] = []
        #: Most recent per-round payload (suspicion / active / events).
        self.last_payload: Optional[Dict[str, Any]] = None
        #: Sources scored this round (set by :meth:`weigh_and_observe`,
        #: consumed by :meth:`finish_round`).
        self._scored: Optional[Tuple[str, ...]] = None
        self._forced: List[MembershipEvent] = []

    # ------------------------------------------------------------------ #
    # Membership / quorum queries (consulted by the default round phases)
    # ------------------------------------------------------------------ #
    def pull_workers(self) -> Tuple[str, ...]:
        """Workers still pulled from, in roster order."""
        return self.book.active()

    def effective_f(self) -> int:
        """The Byzantine budget still assumed present among active workers."""
        return max(0, self.declared_f - len(self.book.evicted))

    def pull_quorum(self) -> int:
        """Replies the server waits for, given the current membership.

        Asynchronous deployments keep the *declared* budget as reply slack,
        not the effective one: crashes and lies both spend from ``f``, and an
        eviction only confirms a liar — it must not eat into the slack that
        keeps the round live when up to ``f`` of the remaining workers stall.
        The quorum therefore *shrinks* by one per eviction
        (``active - declared_f``), which is also where the post-eviction
        rounds/sec gain comes from.
        """
        active = len(self.book.active())
        if self.asynchronous:
            return max(1, active - self.declared_f)
        return active

    # ------------------------------------------------------------------ #
    # Aggregation support
    # ------------------------------------------------------------------ #
    def weigh_and_observe(self, matrix: np.ndarray, sources: Sequence[str]) -> np.ndarray:
        """Score this round's matrix, update the book, return a weighted copy.

        Called by the default aggregate phase *before* the GAR runs: rows are
        scored against the round's coordinate-wise median (robust for
        ``f < q/2``, and available before any aggregate exists), the decayed
        suspicion levels fold the raw scores in immediately, and the returned
        matrix carries the *updated* weights — so a flagrant outlier is
        down-weighted in the very round it first appears, not one round
        later.  Membership decisions still wait for :meth:`finish_round`.
        """
        grid = np.asarray(matrix, dtype=np.float64)
        centre = column_median(sorted_columns(grid))
        raw = self.detector.score(grid, sources, centre, f=self.effective_f())
        self.book.observe(raw)
        self._scored = tuple(sources)
        return scale_rows(grid, self.book.weights(sources))

    # ------------------------------------------------------------------ #
    # Quorum-safety guard
    # ------------------------------------------------------------------ #
    def _may_evict(self, name: str) -> bool:
        """Whether evicting ``name`` keeps the GAR above its input floor.

        Also caps total evictions at the declared budget: at most ``f``
        workers can actually be Byzantine, so an (f+1)-th eviction would
        provably remove an honest worker — it degrades to down-weighting
        instead, and a zero budget never evicts at all.
        """
        active_after = len(self.book.active()) - 1
        if active_after < 1:
            return False
        evicted_after = len(self.roster) - active_after
        if evicted_after > self.declared_f:
            return False
        f_after = max(0, self.declared_f - evicted_after)
        quorum_after = (
            active_after - self.declared_f if self.asynchronous else active_after
        )
        if quorum_after < 1:
            return False
        return quorum_after >= max(1, self.gar_cls.minimum_inputs(f_after))

    # ------------------------------------------------------------------ #
    # Forced transitions (scenario events)
    # ------------------------------------------------------------------ #
    def force_evict(self, round_index: int, name: str) -> bool:
        """Scenario-driven eviction; honours the quorum-safety guard.

        Returns True when the worker was actually evicted.  When the guard
        blocks the eviction the worker's score is still pinned above the
        hysteresis band, so it degrades to heavy down-weighting.
        """
        if name not in self.book.scores:
            raise ConfigurationError(f"cannot evict unknown worker '{name}'")
        if self.book.is_evicted(name):
            return False
        if not self._may_evict(name):
            self.book.scores[name] = max(
                self.book.scores[name], self.book.evict_threshold
            )
            return False
        event = self.book.force_evict(round_index, name)
        if event is not None:
            self._forced.append(event)
            self.events.append(event)
        return event is not None

    def force_readmit(self, round_index: int, name: str) -> bool:
        """Scenario-driven re-admission; returns True when membership changed."""
        event = self.book.force_readmit(round_index, name)
        if event is not None:
            self._forced.append(event)
            self.events.append(event)
        return event is not None

    # ------------------------------------------------------------------ #
    # End-of-round scoring and decisions
    # ------------------------------------------------------------------ #
    def finish_round(self, round_index: int, trace=None) -> Optional[Dict[str, Any]]:
        """Run the membership state machine on the round's updated scores.

        Returns the round's detection payload (decayed suspicion per worker,
        active membership, membership events) or ``None`` when the round
        produced nothing to report — no observations (a strategy bypassing
        the default phases) and no forced events.
        """
        forced, self._forced = self._forced, []
        events: List[MembershipEvent] = list(forced)
        observed = False
        if self._scored is not None:
            sources, self._scored = self._scored, None
            observed = True
            decided = self.book.decide(round_index, sources, may_evict=self._may_evict)
            self.events.extend(decided)
            events.extend(decided)
        if not observed and not events:
            return None
        payload: Dict[str, Any] = {
            "suspicion": {
                name: round(float(self.book.scores[name]), 6) for name in self.roster
            },
            "active": list(self.book.active()),
            "events": [event.to_dict() for event in events],
        }
        self.last_payload = payload
        if trace is not None:
            trace.record_detection(
                round_index,
                suspicion=payload["suspicion"],
                active=payload["active"],
                events=payload["events"],
            )
        return payload
