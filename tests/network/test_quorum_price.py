"""The network rule prices a quorum; it never picks one.

Over seeded draws of link jitter, straggler factors, message drops, hedged
follow-ups and shipped payloads, two transports whose
:class:`~repro.network.cost.NetworkPrice` differs in everything but the link
speed (every reply's arrival is drawn at that one speed) run the same pulls.  Both select
the ``q`` earliest usable arrivals, in arrival order, and leave the same
counters, latency history and RNG stream behind; the charge is at least the
``q``-th arrival and equals it for a one-reply quorum that shipped nothing.
The golden traces pin the same property end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import strategy_class
from repro.exceptions import TimeoutError
from repro.network.cost import DEVICES, FRAMEWORKS, CostModel, NetworkParameters, NetworkPrice
from repro.network.failures import FailureInjector
from repro.network.resilience import HedgePolicy
from repro.network.transport import LinkModel, Transport

DRAWS = 40
PULLS = 4


def build(draw: np.random.Generator, seed: int, price=None):
    """One transport of ``draw``'s cluster; ``draw`` must be at the same state for each twin."""
    peers = int(draw.integers(2, 9))
    transport = Transport(
        link=LinkModel(base_latency=float(draw.uniform(1e-5, 1e-3)), jitter=float(draw.uniform(0.0, 1e-3))),
        failures=FailureInjector(seed=seed, drop_probability=float(draw.choice([0.0, 0.1, 0.3]))),
        seed=seed,
    )
    if price is not None:
        transport.price = price
    if draw.random() < 0.5:
        transport.hedge = HedgePolicy()
    names = [f"peer-{index}" for index in range(peers)]
    for name in ["requester", *names]:
        transport.register_node(name, object())
    size = int(draw.integers(1, 5_000))
    for index, name in enumerate(names):
        transport.register_handler(name, "gradient", lambda context, i=index: np.full(size, float(i)))
        if draw.random() < 0.3:
            transport.failures.set_straggler(name, float(draw.uniform(1.0, 20.0)))
    return transport, names


def spy_outcomes(transport: Transport) -> list:
    """Every classified outcome of ``transport``'s waves, pull after pull."""
    seen, wave = [], transport._wave

    def recording(*args, **kwargs):
        outcomes = wave(*args, **kwargs)
        seen.extend(outcomes)
        return outcomes

    transport._wave = recording
    return seen


def earliest(outcomes, quorum):
    usable = sorted((o for o in outcomes if o.status == "usable"), key=lambda o: o.arrival)
    return [(o.destination, o.arrival) for o in usable[:quorum]]


@pytest.mark.parametrize("draw_seed", range(DRAWS))
def test_the_price_never_moves_a_quorum(draw_seed):
    plain, names = build(np.random.default_rng(draw_seed), draw_seed)
    costly_price = NetworkPrice(NetworkParameters.bandwidth_bytes_per_s, 1.0, transfer_factor=7.0)
    costly, _ = build(np.random.default_rng(draw_seed), draw_seed, costly_price)
    shapes = np.random.default_rng(10_000 + draw_seed)
    outcomes = spy_outcomes(plain)
    for _ in range(PULLS):
        quorum = int(shapes.integers(1, len(names) + 1))
        payload = np.zeros(int(shapes.integers(1, 100))) if shapes.random() < 0.5 else None
        del outcomes[:]
        try:
            replies, elapsed = plain.pull_many("requester", names, "gradient", quorum, payload=payload)
        except TimeoutError:
            with pytest.raises(TimeoutError):
                costly.pull_many("requester", names, "gradient", quorum, payload=payload)
            continue
        twins, _ = costly.pull_many("requester", names, "gradient", quorum, payload=payload)
        selected = [(reply.source, reply.latency) for reply in replies]
        assert selected == earliest(outcomes, quorum)
        assert selected == [(reply.source, reply.latency) for reply in twins]
        assert elapsed >= replies[-1].latency
        if quorum == 1 and payload is None:
            assert elapsed == replies[0].latency
    assert plain.stats == costly.stats
    assert plain._rng.random() == costly._rng.random()
    if plain.hedge is not None:
        assert [plain.hedge.tracker.samples(name) for name in names] == [
            costly.hedge.tracker.samples(name) for name in names
        ]


@pytest.mark.parametrize(
    "deployment, device, framework",
    [("vanilla", "cpu", "tensorflow"), ("vanilla", "gpu", "pytorch"), ("msmw", "gpu", "pytorch")],
)
def test_a_pull_that_ships_nothing_is_charged_at_the_prices_speed(deployment, device, framework):
    """The price runs faster than the raw link here; a reply crosses at the price's speed, and a
    one-reply quorum that shipped nothing (a model pull) costs exactly its arrival."""
    price = CostModel(DEVICES[device], framework=FRAMEWORKS[framework]).network_price(strategy_class(deployment).shape)
    assert price.bandwidth > NetworkParameters.bandwidth_bytes_per_s
    transport = Transport(link=LinkModel(base_latency=1e-4, jitter=0.0))
    transport.price = price
    for node in ("server", "peer"):
        transport.register_node(node, object())
    transport.register_handler("peer", "model", lambda context: np.zeros(100_000))
    (reply,), elapsed = transport.pull_many("server", ["peer"], "model", quorum=1)
    assert elapsed == pytest.approx(price.transfer_factor * (1e-4 + reply.nbytes / price.bandwidth), rel=1e-12)
