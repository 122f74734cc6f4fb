"""Reputation bookkeeping: decayed scores, weights and membership decisions.

The :class:`ReputationBook` is the stateful half of detection.  Detectors emit
memoryless per-round raw scores; the book folds them into an exponentially
decayed suspicion level per worker, maps levels to aggregation weights, and
drives the evict / re-admit lifecycle with hysteresis:

* **evict** when the *raw* score lands at or above :data:`EVICT_THRESHOLD`
  for :data:`PATIENCE` consecutive observed rounds (after a short warm-up) —
  raw strikes, not the decayed level, gate membership so a single unlucky
  mini-batch cannot linger above the bar for several rounds and evict an
  honest worker,
* **re-admit** only once the decayed score has fallen back to or below
  :data:`READMIT_THRESHOLD` — a strictly lower bar, so membership cannot
  oscillate on a borderline worker.

Who is in or out lives in the deployment's one
:class:`~repro.detection.membership.Membership`; the book decides *when* to
ask it for a transition.  Evicted workers are no longer pulled from, so they
produce no fresh raw scores; their level decays at the slower
:data:`IDLE_DECAY` rate, which sets the re-admission probation time.  All
iteration is in roster order and all state is plain floats, keeping the book
bit-deterministic across backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.detection.membership import EVICTED, Membership
from repro.exceptions import ConfigurationError

# Reputation tuning.  Constants, not constructor arguments: one value each is
# in use, and the detection golden pins the scores they produce.
#: Blend factor for observed rounds: ``s <- DECAY*s + (1-DECAY)*raw``.
DECAY = 0.6
#: Multiplicative decay for rounds without an observation (evicted or missing
#: from the pull): slower than ``DECAY`` so a true attacker's score survives
#: its own eviction instead of rebounding instantly.
IDLE_DECAY = 0.9
#: Raw-score bar for eviction strikes.  Calibrated wide: persistent honest
#: shard heterogeneity sustains envelope ratios of ~4-6 (down-weighted, never
#: evicted), while flagrant attacks (reversed / random vectors) sustain ratios
#: of 30-600+.  Stealthy within-variance attacks (LIE, fall-of-empires)
#: deliberately stay below any such bar — rejecting them is the robust GAR's
#: job, not eviction's.
EVICT_THRESHOLD = 8.0
#: Re-admission bar, strictly below ``EVICT_THRESHOLD`` (the hysteresis band).
READMIT_THRESHOLD = 0.5
#: Consecutive over-threshold raw observations required before eviction.
PATIENCE = 3
#: Observed rounds before any eviction is allowed (lets score estimates
#: stabilise on the first mini-batches).
WARMUP = 1


@dataclass(frozen=True)
class MembershipEvent:
    """One evict or re-admit decision, as recorded in traces and results."""

    round_index: int
    action: str  # "evict" | "readmit"
    target: str
    score: float
    #: True when a scenario event forced the decision rather than the book.
    forced: bool = False

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "round": int(self.round_index),
            "action": self.action,
            "target": self.target,
            "score": round(float(self.score), 6),
        }
        if self.forced:
            data["forced"] = True
        return data


@dataclass
class ReputationBook:
    """Per-worker decayed suspicion scores, strike streaks and hysteresis."""

    roster: Tuple[str, ...]
    scores: Dict[str, float] = field(init=False)
    _streaks: Dict[str, int] = field(init=False)
    _last_raw: Dict[str, float] = field(init=False)  # this round's raw scores
    rounds_observed: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.roster = tuple(self.roster)
        if not self.roster:
            raise ConfigurationError("reputation book needs a non-empty roster")
        self.scores = {name: 0.0 for name in self.roster}
        self._streaks = {name: 0 for name in self.roster}
        self._last_raw = {}

    # ------------------------------------------------------------------ #
    # Score updates
    # ------------------------------------------------------------------ #
    def observe(self, raw_scores: Mapping[str, float]) -> None:
        """Fold one round of raw detector scores into the decayed levels."""
        self._last_raw = {}
        for name in self.roster:
            if name in raw_scores:
                raw = max(0.0, float(raw_scores[name]))
                self._last_raw[name] = raw
                self.scores[name] = DECAY * self.scores[name] + (1.0 - DECAY) * raw
            else:
                self.scores[name] = IDLE_DECAY * self.scores[name]
        self.rounds_observed += 1

    def weights(self, sources: Sequence[str]) -> np.ndarray:
        """Aggregation weights for the given pull, normalised to mean 1.

        ``w_i = 1 / (1 + score_i)``, rescaled so the weights sum to the row
        count.  Under a plain average the result is exactly the
        reputation-weighted mean; under geometric GARs (krum, median, bulyan)
        down-weighting shrinks suspicious rows toward the origin, which only
        helps those GARs reject them.
        """
        raw = np.array(
            [1.0 / (1.0 + self.scores.get(name, 0.0)) for name in sources],
            dtype=np.float64,
        )
        total = float(raw.sum())
        if total <= 0.0:  # pragma: no cover - scores are finite and >= 0
            return np.ones(len(raw), dtype=np.float64)
        return raw * (len(raw) / total)

    # ------------------------------------------------------------------ #
    # Membership decisions
    # ------------------------------------------------------------------ #
    def decide(
        self,
        round_index: int,
        observed: Iterable[str],
        membership: Membership,
    ) -> List[MembershipEvent]:
        """Run the hysteresis state machine for one observed round.

        ``observed`` names the workers whose raw scores were folded in this
        round (only they advance eviction streaks, and only when their *raw*
        score struck at or above ``EVICT_THRESHOLD`` — isolated honest
        outlier rounds reset the streak instead of accumulating through the
        decayed level).  Every transition is asked of ``membership``, whose
        quorum-safety guard may refuse it: a refused eviction is skipped,
        degrading to pure down-weighting.
        """
        events: List[MembershipEvent] = []
        observed_set = set(observed)

        # Re-admissions first (roster order): an evicted worker whose score
        # decayed through the lower threshold rejoins the pull set.
        for name in membership.excluded(EVICTED):
            if self.scores[name] <= READMIT_THRESHOLD and membership.readmit(name):
                self._streaks[name] = 0
                events.append(
                    MembershipEvent(round_index, "readmit", name, self.scores[name])
                )

        # Evictions: highest score first so, when the quorum guard only
        # admits some of the candidates, the most suspicious go first.
        active = membership.active()
        for name in active:
            if name not in observed_set:
                continue
            if self._last_raw.get(name, 0.0) >= EVICT_THRESHOLD:
                self._streaks[name] += 1
            else:
                self._streaks[name] = 0
        candidates = [
            name
            for name in active
            if self._streaks[name] >= PATIENCE and self.rounds_observed > WARMUP
        ]
        candidates.sort(key=lambda name: (-self.scores[name], self.roster.index(name)))
        for name in candidates:
            if membership.exclude(name, EVICTED):
                events.append(
                    MembershipEvent(round_index, "evict", name, self.scores[name])
                )
        return events

    def pin(self, name: str, *, out: bool) -> float:
        """Clamp ``name``'s score to the side of the hysteresis band a forced
        transition needs — above it (``out``), so the idle decay keeps the
        worker out for a few rounds; or into the admitted half, streak
        cleared, so stale state cannot instantly re-evict.  Returns the score.
        """
        if name not in self.scores:
            raise ConfigurationError(f"unknown worker '{name}' in reputation book")
        if out:
            self.scores[name] = max(self.scores[name], EVICT_THRESHOLD)
        else:
            self.scores[name] = min(self.scores[name], READMIT_THRESHOLD)
            self._streaks[name] = 0
        return self.scores[name]
