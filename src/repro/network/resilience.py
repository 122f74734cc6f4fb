"""Resilience primitives: typed retry policies and per-round deadline budgets.

The RPC layer historically used two flat timeout constants and one
undifferentiated failure mode: any socket error collapsed into
:class:`~repro.exceptions.NodeCrashedError`.  This module supplies the three
building blocks the self-healing runtime is made of:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic seeded jitter* (``random.Random(f"{seed}/{key}/{attempt}")``,
  the same derivation trick the fuzz generator uses), plus the typed
  retryable-vs-fatal classification: a refused/reset dial
  (:class:`~repro.exceptions.DialError`) or a crashed peer retries; a
  :class:`~repro.exceptions.SerializationError` (corrupt bytes — retrying
  resends the same corrupt frame) and any configuration error do not.
* :class:`DeadlineBudget` — a monotonic per-operation budget that replaces
  the flat constants: each phase (dial, read, spawn-wait) draws a slice of
  the remaining budget instead of getting the full 60 s over and over, so a
  round's worst case is bounded by one number.
* :class:`ResilienceConfig` — the validated, golden-neutral configuration
  surface behind ``ClusterConfig.resilience`` and the ``--retry`` /
  ``--hedge`` / ``--supervise`` CLI flags.  The default (everything off) is
  byte-identical to the pre-resilience runtime; every golden trace stays
  locked.

It also holds the *wave policies* of ``Transport.pull_many``:
:class:`WavePolicy` (ask everyone once — the default) and
:class:`HedgePolicy` (ask a quorum, re-issue what is late), with the
:class:`LatencyTracker` the latter learns deadlines from.

See ``docs/resilience.md`` for the determinism contract and the supervisor
state machine that consumes these pieces.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import (
    ConfigurationError,
    DeadlineError,
    DialError,
    NodeCrashedError,
    SerializationError,
)
from repro.exceptions import TimeoutError as ReproTimeoutError

# --------------------------------------------------------------------- #
# Default budgets (seconds).  The old flat constants conflated three
# different waits; these name them.
# --------------------------------------------------------------------- #
#: Establishing a TCP connection to a local host is milliseconds; a dial
#: that takes longer than this is a dead or wedged peer, not a slow one.
DEFAULT_CONNECT_TIMEOUT = 5.0
#: Reading one reply frame.  Generous — a reply may carry a full model —
#: but finite and *separate* from the dial budget.
DEFAULT_READ_DEADLINE = 60.0
#: Waiting for a spawned node host to print its ready line.
DEFAULT_SPAWN_DEADLINE = 60.0


def is_retryable(error: BaseException) -> bool:
    """The typed retryable-vs-fatal classification.

    Retryable — the call may succeed if re-issued (the peer may be
    respawning, the route healing, the overload passing):

    * :class:`~repro.exceptions.DialError` — refused/reset/unreachable dial;
      nothing reached the peer, retrying is always safe.
    * :class:`~repro.exceptions.NodeCrashedError` — died mid-call; safe for
      the *idempotent* calls the transport retries (pulls are pure reads).
    * :class:`~repro.exceptions.DeadlineError` / typed timeouts — the peer
      is slow, not wrong.

    Fatal — retrying cannot help and may mask a real bug:

    * :class:`~repro.exceptions.SerializationError` — the bytes are corrupt;
      the same frame would be re-sent corrupt.
    * :class:`~repro.exceptions.ConfigurationError` and anything else.
    """
    if isinstance(error, SerializationError):
        return False
    if isinstance(error, ConfigurationError):
        return False
    return isinstance(error, (DialError, NodeCrashedError, ReproTimeoutError, DeadlineError))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``delay(attempt, key)`` is a pure function of ``(seed, key, attempt)`` —
    two runs with the same seed back off identically, so retried schedules
    stay reproducible.  ``key`` names the operation (typically the peer id)
    so concurrent retries against different peers de-synchronise instead of
    thundering together.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    #: Jitter fraction: each delay is scaled by ``1 ± jitter * u`` with a
    #: seeded ``u ∈ [0, 1)``.  Zero disables jitter entirely.
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("RetryPolicy needs max_attempts >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.backoff < 1.0:
            raise ConfigurationError(
                "RetryPolicy needs base_delay/max_delay >= 0 and backoff >= 1"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("RetryPolicy jitter must be in [0, 1]")

    # ------------------------------------------------------------------ #
    def is_retryable(self, error: BaseException) -> bool:
        return is_retryable(error)

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``key``."""
        if attempt < 1:
            return 0.0
        raw = min(self.base_delay * (self.backoff ** (attempt - 1)), self.max_delay)
        if self.jitter <= 0.0:
            return raw
        u = random.Random(f"{self.seed}/{key}/{attempt}").random()
        return raw * (1.0 - self.jitter * u)

    def call(
        self,
        fn: Callable[[], Any],
        *,
        key: str = "",
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> Any:
        """Run ``fn`` under this policy; re-raise the last error when spent.

        ``on_retry(attempt, error)`` fires before each backoff sleep — the
        transport uses it to count retried calls for the cost model.
        """
        last: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except Exception as error:  # noqa: BLE001 - classified below
                last = error
                if attempt >= self.max_attempts or not self.is_retryable(error):
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                pause = self.delay(attempt, key)
                if pause > 0.0:
                    sleep(pause)
        raise last  # pragma: no cover - loop always returns or raises


class DeadlineBudget:
    """A monotonic time budget shared by the phases of one operation.

    Replaces "every phase gets the full flat timeout" with "the operation as
    a whole gets ``total`` seconds; each phase draws from what is left".
    ``clock`` is injectable for tests (defaults to ``time.monotonic``).
    """

    def __init__(self, total: float, *, clock: Callable[[], float] = time.monotonic) -> None:
        if total <= 0:
            raise ConfigurationError("DeadlineBudget needs a positive total")
        self.total = float(total)
        self._clock = clock
        self._started = clock()

    @property
    def deadline(self) -> float:
        return self._started + self.total

    def elapsed(self) -> float:
        return self._clock() - self._started

    def remaining(self) -> float:
        return max(0.0, self.total - self.elapsed())

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def slice(self, at_most: Optional[float] = None, *, floor: float = 1e-3) -> float:
        """A per-phase timeout: the remaining budget, optionally capped.

        Raises :class:`~repro.exceptions.DeadlineError` once the budget is
        spent so callers fail with the typed slow-peer error instead of
        handing a zero timeout to a socket.  ``floor`` keeps the returned
        slice usable even when the budget is nearly gone.
        """
        left = self.remaining()
        if left <= 0.0:
            raise DeadlineError(
                f"deadline budget of {self.total:.3f}s exhausted "
                f"after {self.elapsed():.3f}s"
            )
        phase = left if at_most is None else min(left, at_most)
        return max(phase, floor)


# --------------------------------------------------------------------- #
# The configuration surface
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResilienceConfig:
    """Validated view of ``ClusterConfig.resilience``.

    All three features default off; :attr:`active` gates every code path
    that could perturb the locked golden traces (extra RNG draws, trace
    keys, stats counters).  ``from_value`` accepts the raw dict form stored
    on the cluster config and rejects unknown keys, mirroring
    ``ClusterConfig.from_dict``.
    """

    #: Retry idempotent RPCs (process-backend pulls) under a RetryPolicy.
    retry: bool = False
    #: Hedge straggling quorum pulls to not-yet-sampled peers.
    hedge: bool = False
    #: Supervise process-backend hosts: respawn unscripted deaths.
    supervise: bool = False

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """Whether any resilience feature is on (the golden-trace gate)."""
        return self.retry or self.hedge or self.supervise

    def to_dict(self) -> dict:
        """The sparse dict form: only the flags that differ from default."""
        default = ResilienceConfig()
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != getattr(default, f.name)
        }

    @classmethod
    def from_value(cls, value: Any) -> "ResilienceConfig":
        """Parse the ``ClusterConfig.resilience`` field (dict, None, or self)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if not isinstance(value, Mapping):
            raise ConfigurationError(
                f"resilience must be a mapping of options, got {type(value).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(value) - known
        if unknown:
            raise ConfigurationError(
                f"unknown resilience option(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**dict(value))

    def retry_policy(self, seed: int = 0) -> Optional[RetryPolicy]:
        """The policy the backend should retry idempotent calls under."""
        return RetryPolicy(seed=seed) if self.retry else None


# --------------------------------------------------------------------- #
# Per-peer latency percentile tracking (for hedged pulls)
# --------------------------------------------------------------------- #
class LatencyTracker:
    """Tracks recent reply latencies per peer and answers percentile queries.

    Purely deterministic — it only stores what the (deterministic) transport
    observed, so hedge thresholds are identical across same-seed runs and
    across backends.  Bounded history per peer keeps it O(1) per round.
    """

    def __init__(self, *, percentile: float = 0.9, min_samples: int = 3, window: int = 64) -> None:
        if not 0.0 < percentile <= 1.0:
            raise ConfigurationError("percentile must be in (0, 1]")
        if min_samples < 1 or window < min_samples:
            raise ConfigurationError("need window >= min_samples >= 1")
        self.percentile = float(percentile)
        self.min_samples = int(min_samples)
        self.window = int(window)
        self._samples: dict = {}

    def observe(self, peer: str, latency: float) -> None:
        history = self._samples.setdefault(peer, [])
        history.append(float(latency))
        if len(history) > self.window:
            del history[: len(history) - self.window]

    def samples(self, peer: str) -> Tuple[float, ...]:
        return tuple(self._samples.get(peer, ()))

    def _percentile_of(self, values) -> float:
        # Nearest-rank percentile: ceil(p * n) - 1, clamped.
        ordered = sorted(values)
        rank = min(len(ordered) - 1, max(0, math.ceil(self.percentile * len(ordered)) - 1))
        return ordered[rank]

    def threshold(self, peer: str, fallback: float) -> float:
        """The straggler threshold for ``peer``.

        With enough per-peer history: that peer's latency percentile.  With
        some cohort-wide history: the cohort percentile.  Cold start: the
        caller's ``fallback`` (the link model's expected worst case).
        """
        history = self._samples.get(peer, ())
        if len(history) >= self.min_samples:
            return self._percentile_of(history)
        pooled = [value for values in self._samples.values() for value in values]
        if len(pooled) >= self.min_samples:
            return self._percentile_of(pooled)
        return float(fallback)

    def expected(self, peer: str, fallback: float) -> float:
        """Median expected latency of ``peer`` (for primary-set ranking)."""
        history = self._samples.get(peer, ())
        if len(history) >= self.min_samples:
            ordered = sorted(history)
            return ordered[len(ordered) // 2]
        return float(fallback)


# --------------------------------------------------------------------- #
# Wave policies: which peers one quorum pull asks, and when
# --------------------------------------------------------------------- #
class PullOutcome(NamedTuple):
    """How one pull of a wave ended, as ``Transport.pull_many`` classified it."""

    destination: str
    #: ``refused`` (crashed peer) | ``dropped`` (lossy link or partition) |
    #: ``lost`` (died mid-reply) | ``silent`` (empty or infinitely late
    #: reply) | ``usable``
    status: str
    #: Simulated time at which the requester stops counting on this pull: the
    #: policy's deadline for the peer, or the issue time of a refused pull
    #: (a refused dial is known at once).
    deadline: float
    #: Simulated arrival (issue time + reply latency) of a usable reply.
    arrival: float = math.inf
    reply: Any = None


class WavePolicy:
    """Which peers a quorum pull asks, in which wave.  This is the default.

    ``Transport.pull_many`` runs every wave through one plan -> dispatch ->
    classify loop and keeps the fastest ``quorum`` arrivals; the policy only
    decides *who is asked when*.  A wave is a list of ``(destination,
    issued_at)``, ``issued_at`` in simulated seconds since the pull began.
    The default asks every destination at time zero and never follows up.
    """

    def first_wave(
        self, destinations: Sequence[str], quorum: int
    ) -> Tuple[List[Tuple[str, float]], Sequence[str]]:
        """The opening wave, in planning order, and the peers held in reserve."""
        return [(destination, 0.0) for destination in destinations], ()

    def deadline(self, peer: str, cold_start: float) -> float:
        """How long a pull to ``peer`` may take, from its issue, before it is hedged."""
        return math.inf

    def observe(self, peer: str, latency: float) -> None:
        """Learn the latency of one usable reply."""

    def follow_ups(
        self, outcomes: Sequence[PullOutcome], reserves: Sequence[str]
    ) -> List[Tuple[str, float]]:
        """The next wave, given how the previous one ended and the reserves
        still unasked (``pull_many`` asks again while the quorum is short)."""
        return []


@dataclass(frozen=True)
class HedgePolicy(WavePolicy):
    """Hedged quorum pulls: ask only ``quorum`` peers, re-issue what is late.

    The first wave is the ``quorum`` peers with the lowest tracked median
    latency (a peer without history ranks first, so everyone gets sampled);
    the rest are reserves.  Every pull that has not arrived by its deadline —
    its issue time plus the peer's tracked latency percentile, the cohort's
    while the peer is new, the link's cold-start value before that — is
    re-issued at the deadline to the next reserve, in wave order; while the
    quorum is short a missed follow-up is hedged the same way.  With no reserve
    left, a pull whose message was lost (dropped, or the peer died
    mid-reply) is re-issued to the same peer; a refused, silent or merely
    slow peer is not asked twice.  A straggler's own reply still counts if it
    beats its hedge.  Decisions depend only on the deterministic latency plan,
    so same-seed runs hedge identically on every engine.
    """

    tracker: LatencyTracker = field(default_factory=LatencyTracker)

    def first_wave(self, destinations, quorum):
        # Stable sort: peers with equal expectations keep the caller's order.
        ranked = sorted(destinations, key=lambda peer: self.tracker.expected(peer, 0.0))
        return [(peer, 0.0) for peer in ranked[:quorum]], ranked[quorum:]

    def deadline(self, peer, cold_start):
        return self.tracker.threshold(peer, cold_start)

    def observe(self, peer, latency):
        self.tracker.observe(peer, latency)

    def follow_ups(self, outcomes, reserves):
        reserves = list(reserves)
        hedges = []
        for outcome in outcomes:
            if outcome.arrival <= outcome.deadline:
                continue
            if reserves:
                target = reserves.pop(0)
            elif outcome.status in ("dropped", "lost"):
                target = outcome.destination
            else:
                continue
            hedges.append((target, outcome.deadline))
        return hedges
