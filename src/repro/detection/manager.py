"""Per-deployment detection driver: scoring, weighting and eviction decisions.

One :class:`DetectionManager` is attached to a deployment (as
``Deployment.detection``) when ``ClusterConfig.detector`` names a registered
detector.  It owns the detector and the :class:`ReputationBook`; *who is
pulled, how many replies are awaited and which f holds* is the deployment's
:class:`~repro.detection.membership.Membership`, which the manager is handed
and asks for every transition.  The default
:class:`~repro.core.session.RoundStrategy` consults the manager in two places:

* **aggregate** — the detector scores the round's rows against their
  coordinate-wise median, the :class:`ReputationBook` folds the raw scores
  into its decayed levels, and the GAR runs on the reputation-weighted
  matrix (:meth:`weigh_and_observe`) — a flagrant outlier is down-weighted
  in the very round it first appears;
* **finish_round** — after the accountant closed the round, evictions /
  re-admissions are decided; one the membership's quorum-safety guard
  refuses is skipped — the worker stays in the pull set and is merely
  down-weighted.

Everything here is deterministic given the round's gradient matrix and source
order, which the transport already fixes across the serial, threaded and
process backends.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregators.base import column_median, scale_rows, sorted_columns
from repro.detection.base import Detector, init_detector
from repro.detection.membership import EVICTED, Membership
from repro.detection.reputation import EVICT_THRESHOLD, MembershipEvent, ReputationBook


class DetectionManager:
    """Round-by-round detection state for one deployment."""

    def __init__(
        self,
        *,
        detector: "Detector | str",
        membership: Membership,
    ) -> None:
        self.detector = init_detector(detector) if isinstance(detector, str) else detector
        self.membership = membership
        self.roster: Tuple[str, ...] = membership.roster
        self.book = ReputationBook(self.roster)
        #: Sources scored this round (set by :meth:`weigh_and_observe`,
        #: consumed by :meth:`finish_round`).
        self._scored: Optional[Tuple[str, ...]] = None
        self._forced: List[MembershipEvent] = []

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

        A row holding a NaN or an infinity is the most suspicious row there
        is: it strikes at ``EVICT_THRESHOLD`` outright, and the detector
        scores the finite rows alone, at a budget of ``f`` minus those rows —
        so it cannot blind the detector to the others.
        """
        grid = np.asarray(matrix, dtype=np.float64)
        finite = np.isfinite(grid).all(axis=1)
        raw = {name: EVICT_THRESHOLD for name, ok in zip(sources, finite) if not ok}
        if finite.any():
            clean, kept = grid[finite], [name for name, ok in zip(sources, finite) if ok]
            f = max(0, self.membership.effective_f() - len(raw))
            raw.update(self.detector.score(clean, kept, column_median(sorted_columns(clean)), f=f))
        self.book.observe(raw)
        self._scored = tuple(sources)
        return scale_rows(grid, self.book.weights(sources))

    # ------------------------------------------------------------------ #
    # Forced transitions (scenario events)
    # ------------------------------------------------------------------ #
    def _record_forced(self, round_index: int, action: str, name: str) -> None:
        score = self.book.pin(name, out=action == "evict")
        self._forced.append(MembershipEvent(round_index, action, name, score, forced=True))

    def force_evict(self, round_index: int, name: str) -> bool:
        """Scenario-driven eviction; honours the quorum-safety guard.

        Returns True when the worker was actually evicted.  When the guard
        refuses, the still-active worker's score is pinned above the
        hysteresis band, so the eviction degrades to heavy down-weighting.
        """
        evicted = self.membership.exclude(name, EVICTED)
        if evicted:
            self._record_forced(round_index, "evict", name)
        elif self.membership.cause(name) is None:
            self.book.pin(name, out=True)
        return evicted

    def force_readmit(self, round_index: int, name: str) -> bool:
        """Scenario-driven re-admission; returns True when membership changed."""
        readmitted = self.membership.readmit(name)
        if readmitted:
            self._record_forced(round_index, "readmit", name)
        return readmitted

    # ------------------------------------------------------------------ #
    # End-of-round scoring and decisions
    # ------------------------------------------------------------------ #
    def finish_round(self, round_index: int) -> Optional[Dict[str, Any]]:
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
            events.extend(self.book.decide(round_index, sources, self.membership))
        if not observed and not events:
            return None
        return {
            "suspicion": {
                name: round(float(self.book.scores[name]), 6) for name in self.roster
            },
            "active": list(self.membership.active()),
            "events": [event.to_dict() for event in events],
        }
