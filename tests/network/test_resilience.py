"""Unit tests for the resilience primitives and the RPC timeout split.

Covers ``repro.network.resilience`` — the typed retryable-vs-fatal
classification, deterministic backoff, deadline budgets, the validated
config surface and the latency tracker behind hedged pulls — plus the
regression the split was made for: a dead peer fails the *dial* fast as
:class:`~repro.exceptions.DialError` while a slow-but-alive peer fails the
*read* as :class:`~repro.exceptions.DeadlineError`, and a retried
``RpcClient.call`` re-dials between attempts.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.exceptions import (
    CommunicationError,
    ConfigurationError,
    DeadlineError,
    DialError,
    NodeCrashedError,
    SerializationError,
)
from repro.exceptions import TimeoutError as ReproTimeoutError
from repro.network.resilience import (
    DeadlineBudget,
    HedgePolicy,
    LatencyTracker,
    PullOutcome,
    ResilienceConfig,
    RetryPolicy,
    WavePolicy,
    is_retryable,
)

pytestmark = pytest.mark.resilience


class TestRetryableClassification:
    @pytest.mark.parametrize(
        "error",
        [
            DialError("connection refused"),
            NodeCrashedError("died mid-call"),
            DeadlineError("no reply within budget"),
            ReproTimeoutError("quorum shortfall"),
        ],
    )
    def test_transient_failures_retry(self, error):
        assert is_retryable(error)

    @pytest.mark.parametrize(
        "error",
        [
            SerializationError("corrupt frame"),
            ConfigurationError("bad option"),
            ValueError("some caller bug"),
            CommunicationError("malformed response"),
        ],
    )
    def test_fatal_failures_do_not_retry(self, error):
        assert not is_retryable(error)


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=0.5, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(0) == 0.0

    def test_jittered_delay_is_deterministic_per_seed_and_key(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert a.delay(2, "worker-3") == b.delay(2, "worker-3")
        # Different keys de-synchronise; different seeds re-derive.
        assert a.delay(2, "worker-3") != a.delay(2, "worker-4")
        assert a.delay(2, "worker-3") != RetryPolicy(seed=8).delay(2, "worker-3")

    def test_jitter_only_shrinks_the_raw_delay(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=2.0, jitter=0.5, seed=1)
        for attempt in range(1, 6):
            raw = RetryPolicy(
                base_delay=0.1, backoff=2.0, max_delay=2.0, jitter=0.0
            ).delay(attempt)
            jittered = policy.delay(attempt, "peer")
            assert raw * 0.5 <= jittered <= raw

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -0.1},
            {"backoff": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_call_retries_transient_then_succeeds(self):
        attempts, pauses, notified = [], [], []
        policy = RetryPolicy(max_attempts=3, base_delay=0.05, jitter=0.0)

        def flaky():
            attempts.append(len(attempts))
            if len(attempts) < 3:
                raise DialError("refused")
            return "ok"

        result = policy.call(
            flaky,
            key="peer",
            sleep=pauses.append,
            on_retry=lambda attempt, error: notified.append(attempt),
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert pauses == [pytest.approx(0.05), pytest.approx(0.1)]
        assert notified == [1, 2]

    def test_call_raises_fatal_immediately(self):
        attempts = []
        policy = RetryPolicy(max_attempts=5, jitter=0.0)

        def corrupt():
            attempts.append(1)
            raise SerializationError("corrupt frame")

        with pytest.raises(SerializationError):
            policy.call(corrupt, sleep=lambda _: None)
        assert len(attempts) == 1

    def test_call_reraises_after_budget_spent(self):
        attempts = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)

        def doomed():
            attempts.append(1)
            raise DialError("still refused")

        with pytest.raises(DialError):
            policy.call(doomed, sleep=lambda _: None)
        assert len(attempts) == 3


class TestDeadlineBudget:
    def _clock(self, start=0.0):
        state = {"now": start}
        return state, (lambda: state["now"])

    def test_budget_drains_monotonically(self):
        state, clock = self._clock()
        budget = DeadlineBudget(10.0, clock=clock)
        assert budget.remaining() == pytest.approx(10.0)
        state["now"] = 4.0
        assert budget.elapsed() == pytest.approx(4.0)
        assert budget.remaining() == pytest.approx(6.0)
        assert not budget.expired()
        state["now"] = 11.0
        assert budget.remaining() == 0.0
        assert budget.expired()

    def test_slice_caps_and_floors(self):
        state, clock = self._clock()
        budget = DeadlineBudget(10.0, clock=clock)
        assert budget.slice(at_most=3.0) == pytest.approx(3.0)
        assert budget.slice() == pytest.approx(10.0)
        state["now"] = 9.9999
        assert budget.slice(floor=1e-3) == pytest.approx(1e-3)

    def test_slice_raises_typed_error_once_spent(self):
        state, clock = self._clock()
        budget = DeadlineBudget(2.0, clock=clock)
        state["now"] = 2.5
        with pytest.raises(DeadlineError):
            budget.slice()

    def test_needs_positive_total(self):
        with pytest.raises(ConfigurationError):
            DeadlineBudget(0.0)


class TestResilienceConfig:
    def test_default_is_inactive(self):
        config = ResilienceConfig()
        assert not config.active
        assert config.to_dict() == {}
        assert config.retry_policy() is None

    def test_from_value_accepts_none_dict_and_self(self):
        assert ResilienceConfig.from_value(None) == ResilienceConfig()
        parsed = ResilienceConfig.from_value({"hedge": True, "supervise": True})
        assert parsed.hedge and parsed.supervise and not parsed.retry
        assert ResilienceConfig.from_value(parsed) is parsed

    def test_unknown_options_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="hedging"):
            ResilienceConfig.from_value({"hedging": True})
        with pytest.raises(ConfigurationError):
            ResilienceConfig.from_value("retry")
        # The tuning values of the policies are not configuration.
        with pytest.raises(ConfigurationError, match="max_attempts"):
            ResilienceConfig.from_value({"max_attempts": 4})

    def test_any_flag_activates(self):
        for flag in ("retry", "hedge", "supervise"):
            assert ResilienceConfig(**{flag: True}).active

    def test_retry_policy_derives_from_config_and_seed(self):
        policy = ResilienceConfig(retry=True).retry_policy(seed=9)
        assert policy == RetryPolicy(seed=9) and policy.max_attempts == 3

    def test_to_dict_is_sparse(self):
        assert ResilienceConfig(hedge=True).to_dict() == {"hedge": True}


class TestLatencyTracker:
    def test_window_bounds_history(self):
        tracker = LatencyTracker(window=4, min_samples=2)
        for value in range(10):
            tracker.observe("peer", float(value))
        assert tracker.samples("peer") == (6.0, 7.0, 8.0, 9.0)

    def test_threshold_prefers_peer_then_cohort_then_fallback(self):
        tracker = LatencyTracker(percentile=0.9, min_samples=3)
        # Cold start: nothing observed anywhere.
        assert tracker.threshold("a", fallback=7.0) == 7.0
        # Cohort history but not enough for "a" itself.
        for value in (1.0, 2.0, 3.0, 4.0):
            tracker.observe("b", value)
        assert tracker.threshold("a", fallback=7.0) == 4.0
        # Enough per-peer history: "a"'s own percentile wins.
        for value in (10.0, 11.0, 12.0):
            tracker.observe("a", value)
        assert tracker.threshold("a", fallback=7.0) == 12.0

    def test_nearest_rank_percentile(self):
        tracker = LatencyTracker(percentile=0.9, min_samples=3)
        for value in range(1, 11):
            tracker.observe("peer", float(value))
        # ceil(0.9 * 10) - 1 = rank 8 -> the 9th smallest.
        assert tracker.threshold("peer", fallback=0.0) == 9.0

    def test_expected_is_the_median(self):
        tracker = LatencyTracker(min_samples=3)
        for value in (5.0, 1.0, 3.0):
            tracker.observe("peer", value)
        assert tracker.expected("peer", fallback=0.0) == 3.0
        assert tracker.expected("cold", fallback=2.5) == 2.5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyTracker(percentile=1.5)
        with pytest.raises(ConfigurationError):
            LatencyTracker(window=2, min_samples=3)


class TestHedgePolicy:
    def test_first_wave_is_the_quorum_fastest_known_peers(self):
        policy = HedgePolicy()
        for peer, latency in (("a", 3.0), ("b", 1.0), ("c", 2.0)):
            for _ in range(policy.tracker.min_samples):
                policy.observe(peer, latency)
        wave, reserves = policy.first_wave(["a", "b", "c", "new"], quorum=2)
        # A peer without history ranks first; ties keep the caller's order.
        assert wave == [("new", 0.0), ("b", 0.0)]
        assert list(reserves) == ["c", "a"]

    def test_follow_ups_spend_reserves_in_order_then_reissue_only_lost_messages(self):
        outcomes = [
            PullOutcome("refused", "refused", 0.0),
            PullOutcome("on-time", "usable", 5.0, arrival=4.0),
            PullOutcome("straggler", "usable", 5.0, arrival=9.0),
            PullOutcome("silent", "silent", 6.0),
            PullOutcome("dropped", "dropped", 7.0),
            PullOutcome("died", "lost", 8.0),
        ]
        # Each hedge leaves at the deadline of the pull it covers.
        assert HedgePolicy().follow_ups(outcomes, ["r1", "r2"]) == [
            ("r1", 0.0),
            ("r2", 5.0),
            ("dropped", 7.0),
            ("died", 8.0),
        ]

    def test_the_default_policy_pulls_everyone_once(self):
        policy = WavePolicy()
        wave, reserves = policy.first_wave(["a", "b", "c"], quorum=2)
        assert wave == [("a", 0.0), ("b", 0.0), ("c", 0.0)] and not reserves
        assert policy.deadline("a", 1.0) == float("inf")
        assert policy.follow_ups([PullOutcome("a", "refused", 0.0)], ["b"]) == []


# --------------------------------------------------------------------- #
# The RPC timeout split (dial vs read), over real sockets
# --------------------------------------------------------------------- #
def _free_port() -> int:
    """A port that was just bound and released: dialling it is refused."""
    try:
        probe = socket.create_server(("127.0.0.1", 0))
    except OSError as exc:  # pragma: no cover - sandboxed environments
        pytest.skip(f"sockets unavailable: {exc}")
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestRpcTimeoutSplit:
    def test_dead_peer_fails_the_dial_fast_and_typed(self):
        from repro.network.rpc import RpcClient

        client = RpcClient(("127.0.0.1", _free_port()), connect_timeout=2.0)
        started = time.monotonic()
        with pytest.raises(DialError):
            client.call({"op": "echo"})
        # A refused dial is immediate — nowhere near the old flat 60 s.
        assert time.monotonic() - started < 2.0
        client.close()

    def test_slow_peer_fails_the_read_as_deadline_error(self):
        from repro.network.rpc import RpcClient, RpcServer

        def sleepy(message):
            time.sleep(0.6)
            return "late"

        try:
            server = RpcServer(sleepy)
        except OSError as exc:  # pragma: no cover - sandboxed environments
            pytest.skip(f"sockets unavailable: {exc}")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = RpcClient(("127.0.0.1", server.port), timeout=0.15)
        try:
            with pytest.raises(DeadlineError, match="read deadline"):
                client.call({"op": "echo"})
        finally:
            client.close()
            server.stop()

    def test_retried_call_spends_the_policy_budget(self):
        from repro.network.rpc import RpcClient

        client = RpcClient(("127.0.0.1", _free_port()), connect_timeout=1.0)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        notified = []
        with pytest.raises(DialError):
            policy.call(
                lambda: client.call({"op": "echo"}),
                key="peer",
                on_retry=lambda attempt, error: notified.append(attempt),
            )
        assert notified == [1, 2]
        client.close()
