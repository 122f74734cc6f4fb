"""Tests for the pull-based transport and its quorum semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.health import SUSPECT_AFTER, TIMEOUT_WEIGHT
from repro.exceptions import CommunicationError, NodeCrashedError, TimeoutError
from repro.network.failures import FailureInjector
from repro.network.transport import LinkModel, Transport


def build_cluster(num_nodes=5, seed=0, drop_probability=0.0):
    transport = Transport(
        link=LinkModel(base_latency=1e-3, jitter=1e-4),
        failures=FailureInjector(seed=seed, drop_probability=drop_probability),
        seed=seed,
    )
    for index in range(num_nodes):
        node_id = f"node-{index}"
        transport.register_node(node_id, object())
        transport.register_handler(
            node_id, "value", lambda ctx, i=index: np.full(4, float(i))
        )
    return transport


class TestRegistration:
    def test_duplicate_node_id_rejected(self):
        transport = Transport()
        transport.register_node("a", object())
        with pytest.raises(CommunicationError):
            transport.register_node("a", object())

    def test_known_nodes_sorted(self):
        transport = build_cluster(3)
        assert transport.known_nodes() == ["node-0", "node-1", "node-2"]

    def test_has_handler(self):
        transport = build_cluster(2)
        assert transport.has_handler("node-0", "value")
        assert not transport.has_handler("node-0", "gradient")


class TestPull:
    def test_pull_returns_payload_and_latency(self):
        transport = build_cluster(3)
        reply = transport.pull("node-0", "node-1", "value")
        assert np.allclose(reply.payload, 1.0)
        assert reply.latency > 0
        assert reply.nbytes > 0

    def test_pull_unknown_kind_raises(self):
        transport = build_cluster(2)
        with pytest.raises(CommunicationError):
            transport.pull("node-0", "node-1", "gradient")

    def test_pull_from_crashed_node_raises(self):
        transport = build_cluster(2)
        transport.failures.crash("node-1")
        with pytest.raises(NodeCrashedError):
            transport.pull("node-0", "node-1", "value")

    def test_stats_accumulate(self):
        transport = build_cluster(3)
        transport.pull("node-0", "node-1", "value")
        transport.pull("node-0", "node-2", "value")
        assert transport.stats.messages_sent == 2
        assert transport.stats.bytes_sent > 0
        assert transport.stats.per_kind_messages["value"] == 2

    def test_stats_reset(self):
        transport = build_cluster(2)
        transport.pull("node-0", "node-1", "value")
        transport.stats.reset()
        assert transport.stats.messages_sent == 0

    def test_request_payload_reaches_handler(self):
        transport = Transport()
        transport.register_node("a", object())
        transport.register_node("b", object())
        received = {}

        def handler(ctx):
            received["payload"] = ctx.payload
            received["requester"] = ctx.requester
            return np.zeros(1)

        transport.register_handler("b", "echo", handler)
        transport.pull("a", "b", "echo", iteration=3, payload=np.arange(4.0))
        assert np.allclose(received["payload"], np.arange(4.0))
        assert received["requester"] == "a"


class TestPullMany:
    def test_returns_exactly_quorum_fastest(self):
        transport = build_cluster(6)
        peers = [f"node-{i}" for i in range(1, 6)]
        replies, elapsed = transport.pull_many("node-0", peers, "value", quorum=3)
        assert len(replies) == 3
        assert elapsed == max(r.latency for r in replies)
        latencies = [r.latency for r in replies]
        assert latencies == sorted(latencies)

    def test_quorum_larger_than_peers_rejected(self):
        transport = build_cluster(3)
        with pytest.raises(CommunicationError):
            transport.pull_many("node-0", ["node-1", "node-2"], "value", quorum=3)

    def test_zero_quorum_rejected(self):
        transport = build_cluster(3)
        with pytest.raises(CommunicationError):
            transport.pull_many("node-0", ["node-1"], "value", quorum=0)

    def test_crashed_peers_are_skipped(self):
        transport = build_cluster(5)
        transport.failures.crash("node-2")
        peers = [f"node-{i}" for i in range(1, 5)]
        replies, _ = transport.pull_many("node-0", peers, "value", quorum=3)
        assert len(replies) == 3
        assert all(r.source != "node-2" for r in replies)

    def test_timeout_when_quorum_unreachable(self):
        transport = build_cluster(4)
        transport.failures.crash("node-2")
        transport.failures.crash("node-3")
        peers = ["node-1", "node-2", "node-3"]
        with pytest.raises(TimeoutError):
            transport.pull_many("node-0", peers, "value", quorum=2)

    def test_silent_byzantine_replies_do_not_count(self):
        transport = build_cluster(4)
        transport.register_handler("node-3", "value", lambda ctx: None)  # drop attack
        peers = ["node-1", "node-2", "node-3"]
        replies, _ = transport.pull_many("node-0", peers, "value", quorum=2)
        assert len(replies) == 2
        assert all(r.source != "node-3" for r in replies)

    def test_straggler_rarely_in_small_quorum(self):
        transport = build_cluster(6, seed=3)
        transport.failures.set_straggler("node-5", 100.0)
        peers = [f"node-{i}" for i in range(1, 6)]
        fastest_sources = set()
        for _ in range(10):
            replies, _ = transport.pull_many("node-0", peers, "value", quorum=2)
            fastest_sources.update(r.source for r in replies)
        assert "node-5" not in fastest_sources

    def test_dropped_messages_reduce_usable_replies(self):
        transport = build_cluster(6, seed=1, drop_probability=0.95)
        peers = [f"node-{i}" for i in range(1, 6)]
        with pytest.raises(TimeoutError):
            transport.pull_many("node-0", peers, "value", quorum=5)


class TestQuorumBoundary:
    """Regression guard: an unusable peer is counted against the quorum
    denominator exactly once, even when it fails in several ways at once.

    Over real sockets a peer can straggle (its slow reply still in flight)
    and then be dropped mid-reply (SIGKILL → connection reset, surfacing as
    NodeCrashedError from the serve task).  The fan-out used to propagate
    that error and cancel everything — charging the one dead peer against
    the entire round — instead of excluding just its own reply.
    """

    ALL = [f"node-{i}" for i in range(6)]

    def test_peer_lost_mid_reply_is_excluded_exactly_once_at_n_minus_f(self):
        # n = 6, f = 1: five usable peers, quorum of exactly n - f = 5.
        transport = build_cluster(6, seed=2)
        transport.failures.set_straggler("node-5", 50.0)  # it straggles...
        transport.register_handler(
            "node-5",
            "value",
            lambda ctx: (_ for _ in ()).throw(NodeCrashedError("killed mid-reply")),
        )  # ...and is dropped while its reply is in flight
        replies, elapsed = transport.pull_many("src", self.ALL, "value", quorum=5)
        assert len(replies) == 5
        assert "node-5" not in {r.source for r in replies}
        assert elapsed == replies[-1].latency

    def test_straggling_and_link_dropped_peer_counts_once_at_n_minus_f(self):
        # Seed chosen so the lossy link drops exactly the straggler's message:
        # the peer is both straggling and dropped, yet exactly n - f = 5
        # usable replies remain and the quorum is met.
        transport = build_cluster(6, seed=49, drop_probability=0.3)
        transport.failures.set_straggler("node-5", 50.0)
        probe = FailureInjector(seed=49, drop_probability=0.3)
        assert [probe.should_drop() for _ in range(6)] == [False] * 5 + [True]
        replies, _ = transport.pull_many("src", self.ALL, "value", quorum=5)
        assert len(replies) == 5
        assert "node-5" not in {r.source for r in replies}

    def test_one_reply_short_of_quorum_reports_exact_usable_count(self):
        transport = build_cluster(6, seed=2)
        transport.register_handler(
            "node-5",
            "value",
            lambda ctx: (_ for _ in ()).throw(NodeCrashedError("killed mid-reply")),
        )
        with pytest.raises(
            TimeoutError, match=r"5 usable replies, needed 6.*lost mid-reply: node-5"
        ):
            transport.pull_many("src", self.ALL, "value", quorum=6)

    def test_mid_reply_loss_does_not_cancel_sibling_tasks_under_threads(self):
        from repro.core.executor import ThreadedExecutor

        transport = build_cluster(6, seed=2)
        transport.use_executor(ThreadedExecutor(max_workers=6))
        transport.register_handler(
            "node-2",
            "value",
            lambda ctx: (_ for _ in ()).throw(NodeCrashedError("killed mid-reply")),
        )
        try:
            replies, _ = transport.pull_many("src", self.ALL, "value", quorum=5)
        finally:
            transport.executor.shutdown()
        assert sorted(r.source for r in replies) == [
            "node-0", "node-1", "node-3", "node-4", "node-5",
        ]


class TestLivenessFeed:
    """The liveness detector hears about every fan-out pull, hedged or not."""

    PEERS = [f"node-{i}" for i in range(1, 6)]

    def detector(self):
        from repro.core.health import LivenessDetector
        from repro.detection.membership import Membership

        return LivenessDetector(
            Membership(self.PEERS, declared_f=1, gar_name="median", slack=1)
        )

    def test_partitioned_peer_accrues_suspicion_without_hedging(self):
        # --retry / --supervise without --hedge: a pull cut off by a partition
        # used to be planned away silently, so the peer stayed "healthy".
        transport = build_cluster(6, seed=4)
        transport.health = self.detector()
        transport.failures.set_partition(["node-3"])
        scores = []
        for iteration in range(3):
            transport.pull_many("node-0", self.PEERS, "value", quorum=4, iteration=iteration)
            scores.append(transport.health.scores["node-3"])
        assert scores == sorted(scores) and scores[0] > 0.0
        assert scores[-1] >= SUSPECT_AFTER
        assert transport.health.scores["node-1"] == 0.0

    def test_link_dropped_pull_is_reported_as_a_timeout(self):
        # Seed chosen so the lossy link drops exactly the fifth message.
        transport = build_cluster(6, seed=35, drop_probability=0.3)
        transport.health = self.detector()
        probe = FailureInjector(seed=35, drop_probability=0.3)
        assert [probe.should_drop() for _ in range(5)] == [False] * 4 + [True]
        transport.pull_many("node-0", self.PEERS, "value", quorum=4)
        assert transport.health.scores == {
            **dict.fromkeys(self.PEERS[:4], 0.0),
            "node-5": TIMEOUT_WEIGHT,
        }


class TestLinkModel:
    def test_latency_grows_with_message_size(self):
        link = LinkModel(base_latency=1e-3, jitter=0.0, bandwidth_bytes_per_s=1e6)
        rng = np.random.default_rng(0)
        small = link.sample_latency(rng, 1_000)
        large = link.sample_latency(rng, 1_000_000)
        assert large > small

    def test_straggler_factor_multiplies(self):
        link = LinkModel(base_latency=1e-3, jitter=0.0)
        rng = np.random.default_rng(0)
        assert link.sample_latency(rng, 100, factor=10.0) == pytest.approx(
            10.0 * link.sample_latency(rng, 100, factor=1.0)
        )


class TestRoundBufferSink:
    def test_pull_many_fills_rows_in_arrival_order(self):
        from repro.network.transport import RoundBuffer

        transport = build_cluster(num_nodes=5)
        sink = RoundBuffer(capacity=5, dimension=4)
        replies, _ = transport.pull_many(
            "node-0", [f"node-{i}" for i in range(1, 5)], "value", quorum=3, sink=sink
        )
        matrix = sink.matrix()
        assert matrix.shape == (3, 4)
        for index, reply in enumerate(replies):
            assert np.array_equal(matrix[index], np.asarray(reply.payload, dtype=np.float64))

    def test_sink_matrix_is_readonly_and_stable_within_round(self):
        from repro.network.transport import RoundBuffer

        transport = build_cluster(num_nodes=4)
        sink = RoundBuffer(capacity=4, dimension=4)
        transport.pull_many(
            "node-0", ["node-1", "node-2", "node-3"], "value", quorum=2, sink=sink
        )
        matrix = sink.matrix()
        assert not matrix.flags.writeable
        assert sink.matrix() is matrix  # sealed view is stable until reset

    def test_sink_reused_across_rounds(self):
        from repro.network.transport import RoundBuffer

        transport = build_cluster(num_nodes=4)
        sink = RoundBuffer(capacity=4, dimension=4)
        destinations = ["node-1", "node-2", "node-3"]
        transport.pull_many("node-0", destinations, "value", quorum=3, sink=sink)
        first = sink.matrix()
        first_copy = first.copy()
        transport.pull_many("node-0", destinations, "value", quorum=3, sink=sink)
        second = sink.matrix()
        # Same storage recycled; the same three constant replies arrive, but
        # the arrival order re-randomizes per round.
        assert np.shares_memory(first, second)
        assert np.array_equal(
            np.sort(second, axis=0), np.sort(first_copy, axis=0)
        )

    def test_sink_rejects_mismatched_payload_dimension(self):
        from repro.network.transport import RoundBuffer

        transport = build_cluster(num_nodes=3)
        sink = RoundBuffer(capacity=3, dimension=7)  # handlers serve 4-vectors
        with pytest.raises(CommunicationError):
            transport.pull_many("node-0", ["node-1", "node-2"], "value", quorum=2, sink=sink)


class TestDeltaStreamEmulation:
    def test_crash_restarts_the_crashed_nodes_streams_only(self):
        """A crashed sender re-sends absolute (its real host lost the
        reference); every other stream keeps delta-encoding."""
        from repro.network.message import RequestContext
        from repro.network.serialization import serialize_with_reconstruction
        from repro.network.transport import InProcessBackend

        rng = np.random.default_rng(0)
        served = {"a": rng.normal(size=5000), "b": rng.normal(size=5000)}
        backend = InProcessBackend(wire_format="int8+delta")
        for node in served:
            backend.register_handler(node, "value", lambda ctx, node=node: served[node])
        context = RequestContext(requester="server", iteration=0)
        first = {node: backend.invoke(node, "value", context) for node in served}
        for node in served:
            served[node] = served[node] + 0.01 * rng.normal(size=5000)
        backend.apply_control("a", "crash")
        backend.apply_control("a", "recover")
        second = {node: backend.invoke(node, "value", context) for node in served}
        absolute = serialize_with_reconstruction(served["a"], "int8+delta")[1]
        delta = serialize_with_reconstruction(served["b"], "int8+delta", reference=first["b"])[1]
        assert np.array_equal(second["a"], absolute)
        assert np.array_equal(second["b"], delta)
        assert not np.array_equal(delta, serialize_with_reconstruction(served["b"], "int8")[1])
