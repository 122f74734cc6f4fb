"""Hedged quorum pulls: determinism, straggler outwaiting, shortfall naming.

The hedging layer must change *when* replies arrive, never *what* a
same-seed run computes: everything random is pre-sampled serially, so the
serial and threaded engines agree byte-for-byte.  These tests pin that
contract, the straggler-outwaiting behaviour the resilience bench leans on,
the dropped-pull rescue, and the deficit-naming quorum-shortfall error the
fuzz shrink reports rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.executor import ThreadedExecutor
from repro.core.health import LivenessDetector
from repro.detection.membership import Membership
from repro.exceptions import CommunicationError
from repro.exceptions import TimeoutError as ReproTimeoutError
from repro.network.failures import FailureInjector
from repro.network.resilience import HedgePolicy
from repro.network.transport import LinkModel, Transport

pytestmark = pytest.mark.resilience

NODES = [f"node-{i}" for i in range(6)]


def build_transport(
    *,
    hedge: bool = False,
    threaded: bool = False,
    seed: int = 3,
    stragglers: dict = None,
    drop_probability: float = 0.0,
) -> Transport:
    failures = FailureInjector(seed=seed, drop_probability=drop_probability)
    for node, factor in (stragglers or {}).items():
        failures.set_straggler(node, factor)
    transport = Transport(
        link=LinkModel(base_latency=1e-3, jitter=1e-4),
        failures=failures,
        seed=seed,
        executor=ThreadedExecutor(max_workers=8) if threaded else None,
    )
    if hedge:
        transport.hedge = HedgePolicy()
    for index, node_id in enumerate(NODES):
        transport.register_node(node_id, object())
        transport.register_handler(
            node_id, "value", lambda ctx, i=index: np.full(4, float(i))
        )
    return transport


def run_rounds(transport: Transport, rounds: int, quorum: int = 4):
    """Selected (source, latency) pairs per round — the determinism witness."""
    observed = []
    for iteration in range(rounds):
        replies, elapsed = transport.pull_many(
            "node-0", NODES[1:], "value", quorum=quorum, iteration=iteration
        )
        observed.append(([(r.source, r.latency) for r in replies], elapsed))
    return observed


class TestDeterminism:
    def test_same_seed_hedged_runs_are_identical(self):
        first = run_rounds(build_transport(hedge=True), rounds=5)
        second = run_rounds(build_transport(hedge=True), rounds=5)
        assert first == second

    def test_serial_and_threaded_engines_agree(self):
        serial = run_rounds(build_transport(hedge=True), rounds=5)
        threaded = run_rounds(build_transport(hedge=True, threaded=True), rounds=5)
        assert serial == threaded

    def test_hedging_off_leaves_counters_untouched(self):
        transport = build_transport()
        run_rounds(transport, rounds=3)
        assert transport.stats.hedges_issued == 0
        assert transport.stats.hedged_bytes == 0
        assert transport.stats.retries_issued == 0


class TestStragglerOutwaiting:
    def test_straggling_primary_is_hedged_and_outwaited(self):
        straggler = "node-1"
        transport = build_transport(hedge=True, stragglers={straggler: 50.0})
        observed = run_rounds(transport, rounds=4, quorum=4)
        assert transport.stats.hedges_issued >= 1
        assert transport.stats.hedged_bytes > 0
        # Once its latency history exists, the straggler is outwaited: later
        # rounds select without it and finish far below its ~50 ms replies.
        final_selected, final_elapsed = observed[-1]
        assert straggler not in [source for source, _ in final_selected]
        assert final_elapsed < 0.025

    def test_hedged_path_feeds_the_liveness_detector(self):
        straggler = "node-1"
        transport = build_transport(hedge=True, stragglers={straggler: 50.0})
        transport.health = LivenessDetector(
            Membership(NODES[1:], declared_f=1, gar_name="median", slack=1)
        )
        run_rounds(transport, rounds=8, quorum=4)
        # Slow-reply evidence accrued; the fast peers stayed clean.
        assert transport.health.scores[straggler] > 0.0
        assert transport.health.scores["node-2"] == pytest.approx(0.0)

    def test_dropped_pull_is_reissued_when_no_reserves_remain(self):
        # Full-membership quorum leaves no reserve peers, so a planned drop
        # can only be rescued by re-pulling the dropped peer itself.
        transport = build_transport(hedge=True, drop_probability=0.2, seed=0)
        for iteration in range(6):
            replies, _ = transport.pull_many(
                "node-0", NODES[1:], "value", quorum=len(NODES) - 1, iteration=iteration
            )
            assert len(replies) == len(NODES) - 1
        assert transport.stats.hedges_issued >= 1


class TestQuorumShortfall:
    def assert_deficit_named(self, excinfo, crashed):
        message = str(excinfo.value)
        assert "quorum shortfall" in message
        assert "needed 4" in message
        for node in crashed:
            assert node in message.split("never replied:")[-1]
        # The typed contract: repro's TimeoutError, still a CommunicationError.
        assert isinstance(excinfo.value, ReproTimeoutError)
        assert isinstance(excinfo.value, CommunicationError)

    def test_plain_path_names_the_missing_peers(self):
        transport = build_transport()
        crashed = ["node-4", "node-5"]
        for node in crashed:
            transport.failures.crash(node)
        with pytest.raises(ReproTimeoutError) as excinfo:
            transport.pull_many("node-0", NODES[1:], "value", quorum=4)
        self.assert_deficit_named(excinfo, crashed)

    def test_hedged_path_names_the_missing_peers(self):
        transport = build_transport(hedge=True)
        crashed = ["node-3", "node-4", "node-5"]
        for node in crashed:
            transport.failures.crash(node)
        with pytest.raises(ReproTimeoutError) as excinfo:
            transport.pull_many("node-0", NODES[1:], "value", quorum=4)
        self.assert_deficit_named(excinfo, crashed)
