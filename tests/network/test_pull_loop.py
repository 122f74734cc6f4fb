"""One quorum loop, two wave policies: the behaviour both must keep.

``Transport.pull_many`` runs a single plan -> dispatch -> classify -> select
loop; hedging is a policy that picks the waves.  Three things pin "same
behaviour" here:

* ``hedged_pull_fixture.json`` — eight hedged rounds under three set-ups,
  recorded from the two-loop implementation this one replaced (replies,
  elapsed times, stats, RNG states, tracker samples, liveness scores; floats
  as ``repr``).  Run this file as a script to regenerate it — only when the
  hedging behaviour itself is meant to change.
* The degenerate case: while the tracker is cold, the link fault-free and the
  quorum is the whole membership, the hedging policy *is* the default one.
* A failure matrix: every way a pull can fail lands the peer in the same
  category of the ``quorum shortfall`` message under both policies, and
  reaches the liveness detector once per pull — once by default, twice
  when the hedged path re-asks a lost message.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import ThreadedExecutor
from repro.core.health import LivenessDetector
from repro.detection.membership import Membership
from repro.exceptions import NodeCrashedError
from repro.exceptions import TimeoutError as ReproTimeoutError
from repro.network.failures import FailureInjector
from repro.network.resilience import HedgePolicy
from repro.network.transport import LinkModel, Transport
from test_transport_hedging import NODES, build_transport, run_rounds

pytestmark = pytest.mark.resilience

FIXTURE = Path(__file__).with_name("hedged_pull_fixture.json")
ROUNDS = 8

#: name -> (build_transport keywords, node crashed before round 0, quorum)
SETUPS = {
    "straggler-50x": (dict(stragglers={"node-1": 50.0}), None, 4),
    "drops-at-full-quorum": (dict(drop_probability=0.2, seed=0), None, len(NODES) - 1),
    "crashed-primary": (dict(), "node-2", 4),
}


def record(name: str, threaded: bool) -> dict:
    """Everything observable about eight hedged rounds of one set-up."""
    keywords, crashed, quorum = SETUPS[name]
    transport = build_transport(hedge=True, threaded=threaded, **keywords)
    transport.health = LivenessDetector(
        Membership(NODES[1:], declared_f=1, gar_name="median", slack=1)
    )
    if crashed is not None:
        transport.failures.crash(crashed)
    try:
        observed = run_rounds(transport, rounds=ROUNDS, quorum=quorum)
    finally:
        transport.close()
    stats = transport.stats
    return {
        "rounds": [
            [[[source, repr(latency)] for source, latency in replies], repr(elapsed)]
            for replies, elapsed in observed
        ],
        "stats": {
            "messages_sent": stats.messages_sent,
            "bytes_sent": stats.bytes_sent,
            "pulls_issued": stats.pulls_issued,
            "time_communicating": repr(stats.time_communicating),
            "hedges_issued": stats.hedges_issued,
            "hedged_bytes": stats.hedged_bytes,
            "retries_issued": stats.retries_issued,
            "per_kind_messages": dict(stats.per_kind_messages),
        },
        "link_rng": transport._rng.bit_generator.state,
        "drop_rng": transport.failures._rng.bit_generator.state,
        "tracker": {
            node: [repr(value) for value in transport.hedge.tracker.samples(node)]
            for node in NODES[1:]
        },
        "health": {node: repr(transport.health.scores[node]) for node in NODES[1:]},
    }


@pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
@pytest.mark.parametrize("name", sorted(SETUPS))
def test_hedged_rounds_match_the_two_loop_implementation(name, threaded):
    expected = json.loads(FIXTURE.read_text())[name]
    assert record(name, threaded) == expected
    assert expected["stats"]["hedges_issued"] > 0  # the set-up does hedge


# --------------------------------------------------------------------- #
# Degenerate case: hedging with nothing to hedge is the default policy
# --------------------------------------------------------------------- #
def cold_transport(seed: int, peers: int, hedge: bool, threaded: bool = False) -> Transport:
    transport = Transport(
        link=LinkModel(base_latency=1e-3, jitter=1e-4),
        failures=FailureInjector(seed=seed),
        seed=seed,
        executor=ThreadedExecutor(max_workers=4) if threaded else None,
    )
    if hedge:
        transport.hedge = HedgePolicy()
    for index in range(peers + 1):
        transport.register_node(f"n{index}", object())
        transport.register_handler(
            f"n{index}", "value", lambda ctx, i=index: np.full(3 + i, float(i))
        )
    return transport


def witness(transport: Transport, peers: int, rounds: int):
    destinations = [f"n{i}" for i in range(1, peers + 1)]
    observed = []
    for iteration in range(rounds):
        replies, elapsed = transport.pull_many(
            "n0", destinations, "value", quorum=peers, iteration=iteration
        )
        observed.append(([(r.source, r.latency, r.nbytes) for r in replies], elapsed))
    stats = transport.stats
    transport.close()
    return (
        observed,
        transport._rng.bit_generator.state,
        (stats.messages_sent, stats.bytes_sent, stats.pulls_issued, stats.time_communicating),
    )


class TestNothingToHedge:
    # "Cold" lasts while every peer has fewer than ``min_samples`` (3)
    # observations: the ranking is the caller's order and the threshold is
    # the link's cold-start deadline, which no fault-free reply exceeds.
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**20), peers=st.integers(1, 8), rounds=st.integers(1, 3))
    def test_full_quorum_on_a_cold_tracker_is_the_default_policy(self, seed, peers, rounds):
        hedged = cold_transport(seed, peers, hedge=True)
        assert witness(hedged, peers, rounds) == witness(
            cold_transport(seed, peers, hedge=False), peers, rounds
        )
        assert hedged.stats.hedges_issued == 0
        assert hedged.stats.hedged_bytes == 0

    def test_also_on_pool_threads(self):
        hedged = cold_transport(11, 6, hedge=True, threaded=True)
        assert witness(hedged, 6, 3) == witness(cold_transport(11, 6, hedge=False), 6, 3)
        assert hedged.stats.hedges_issued == 0


# --------------------------------------------------------------------- #
# Failure matrix: one classifier, whatever the policy
# --------------------------------------------------------------------- #
VICTIM = "node-2"
#: The only reserve of a 4-of-5 hedged pull: crashed, so a hedge cannot save
#: the round.
DEAD_RESERVE = "node-5"


class TargetedDrops(FailureInjector):
    """Loses every message to one peer (``drop_rate`` cannot aim)."""

    victim = None
    _planning = None

    def is_unreachable(self, source, destination):
        self._planning = destination
        return super().is_unreachable(source, destination)

    def should_drop(self):
        return self._planning == self.victim


class RecordingHealth:
    def __init__(self):
        self.calls = []

    def observe_success(self, peer, latency):
        self.calls.append((peer, "success"))

    def observe_refused(self, peer):
        self.calls.append((peer, "refused"))

    def observe_timeout(self, peer):
        self.calls.append((peer, "timeout"))


def _die(ctx):
    raise NodeCrashedError("killed while replying")


#: failure -> (how to inflict it on VICTIM, shortfall category, health outcome)
FAILURES = {
    "crashed": (lambda t: t.failures.crash(VICTIM), "never replied", "refused"),
    "dropped": (lambda t: setattr(t.failures, "victim", VICTIM), "never replied", "timeout"),
    "partitioned": (lambda t: t.failures.set_partition([VICTIM]), "never replied", "timeout"),
    "silent": (
        lambda t: t.register_handler(VICTIM, "value", lambda ctx: None),
        "silent/late",
        "timeout",
    ),
    "died mid-reply": (
        lambda t: t.register_handler(VICTIM, "value", _die),
        "lost mid-reply",
        "timeout",
    ),
    "infinite latency": (
        lambda t: t.failures.set_straggler(VICTIM, float("inf")),
        "silent/late",
        "timeout",
    ),
}


#: The failures that lose the message: the hedged path asks the victim once
#: more after its reserve is refused, the default path never does.
LOST = {"dropped", "partitioned", "died mid-reply"}


def shortfall(failure: str, hedge: bool):
    transport = build_transport(hedge=hedge)
    transport.failures = TargetedDrops(seed=3)
    transport.health = RecordingHealth()
    transport.failures.crash(DEAD_RESERVE)
    FAILURES[failure][0](transport)
    with pytest.raises(ReproTimeoutError) as excinfo:
        transport.pull_many("node-0", NODES[1:], "value", quorum=4)
    body = str(excinfo.value).split("[", 1)[1].rstrip("]")
    categories = {}
    for part in body.split(" | "):
        label, names = part.split(": ")
        categories[label] = [] if names == "none" else names.split(", ")
    return categories, sorted(transport.health.calls)


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_each_failure_is_classified_once_under_both_policies(failure):
    _, category, outcome = FAILURES[failure]
    plain, plain_health = shortfall(failure, hedge=False)
    hedged, hedged_health = shortfall(failure, hedge=True)
    assert plain == hedged
    assert VICTIM in plain[category]
    assert sorted(plain["replied"]) == ["node-1", "node-3", "node-4"]
    assert DEAD_RESERVE in plain["never replied"]
    expected_health = sorted(
        [(VICTIM, outcome), (DEAD_RESERVE, "refused")]
        + [(node, "success") for node in ("node-1", "node-3", "node-4")]
    )
    assert plain_health == expected_health
    assert hedged_health == sorted(expected_health + [(VICTIM, outcome)] * (failure in LOST))


class TestLostPullsAreReAsked:
    """Once the reserves are spent, a hedged pull re-asks every lost pull."""

    def test_a_lost_pull_of_an_earlier_wave_is_asked_again(self):
        # node-2 is dropped once and its reserve is dropped too: the reserve
        # is re-asked at its deadline and node-2, an earlier wave's loss, once
        # that wave has settled.  Both second asks get through.
        transport = build_transport(hedge=True)
        transport.health = RecordingHealth()
        lost_once = {"node-2", "node-5"}

        class DropFirstAsk(FailureInjector):
            planning = None

            def is_unreachable(self, source, destination):
                self.planning = destination
                return super().is_unreachable(source, destination)

            def should_drop(self):
                if self.planning in lost_once:
                    lost_once.discard(self.planning)
                    return True
                return False

        transport.failures = DropFirstAsk(seed=3)
        replies, _ = transport.pull_many("node-0", NODES[1:], "value", quorum=4)
        assert len(replies) == 4
        asks = [peer for peer, _ in transport.health.calls]
        assert asks.count("node-2") == asks.count("node-5") == 2

    def test_a_permanent_partition_ends_in_a_timeout_naming_the_peer(self):
        # The victim and its one reserve sit on an island for good: each is
        # asked twice, and the pull then gives up.
        transport = build_transport(hedge=True)
        transport.health = RecordingHealth()
        transport.failures.set_partition([VICTIM, "node-5"])
        with pytest.raises(ReproTimeoutError, match=f"never replied: {VICTIM}, node-5"):
            transport.pull_many("node-0", NODES[1:], "value", quorum=4)
        assert transport.health.calls.count((VICTIM, "timeout")) == 2
        assert transport.health.calls.count(("node-5", "timeout")) == 2


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: record(name, threaded=False) for name in sorted(SETUPS)}, indent=1)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
