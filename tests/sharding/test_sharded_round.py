"""A sharded msmw round is the msmw round: one aggregate phase, one byte ledger.

With ``shards > 1`` the gradient pull returns the staged per-shard buffer and
``RoundStrategy.aggregate`` runs it, so a sharded round is sized and charged
like any other:

* after a worker is declared dead, the rule charged is the one resized for
  the rows actually aggregated, at the widest shard;
* the transport's ledger charges every message the reporting server
  exchanged to that server — requests and model replies at
  ``message_nbytes(d)``, gradient replies one priced message a slice,
  coordination frames at their framed size — and the accountant makes one
  ``serialization_time`` call over that byte total, beside the fabric's
  time for every byte of the round.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.scenario import ScenarioDirector, ScenarioEvent, ScenarioSpec
from repro.core.session import Session, strategy_class
from repro.network.cost import GPU, PYTORCH, CostModel
from repro.network.serialization import message_nbytes, serialized_nbytes
from repro.network.transport import LinkModel, Transport
from repro.sharding import ShardMap

pytestmark = pytest.mark.sharding

SHARDS = 3


def test_after_a_death_a_sharded_round_is_charged_the_resized_rule():
    config = ClusterConfig(
        deployment="msmw",
        num_workers=10,
        num_byzantine_workers=2,
        num_servers=3,
        gradient_gar="multi-krum",
        model_gar="median",
        model="logistic",
        dataset_size=240,
        asynchronous=True,
        shards=SHARDS,
        resilience={"hedge": True},
        num_iterations=5,
        accuracy_every=5,
        seed=5,
    )
    deployment = Controller(config).build()
    crash = ScenarioEvent.from_dict({"round": 1, "action": "crash", "target": "worker-0"})
    deployment.director = ScenarioDirector(
        ScenarioSpec(name="worker-crash", config={}, events=[crash]), deployment
    )
    with Session(deployment) as session:
        results = list(session)

    assert results[1].health["dead"] == ["worker-0"]
    assert deployment.membership.quorum() == 7
    cost_model, dimension = deployment.cost_model, deployment.primary.dimension
    sized = deployment.gradient_gar.resized(7, 2)
    assert sized is not deployment.gradient_gar
    # The widest of the three shard lanes is the critical path.
    expected = cost_model.aggregation_time(
        sized, ShardMap(dimension, SHARDS).max_size
    ) + cost_model.aggregation_time(deployment.model_gar, dimension)
    for result in results[2:]:
        assert result.quorum == 7
        assert result.record.aggregation_time == expected


def test_the_accountant_prices_a_sharded_round_from_the_byte_ledger():
    config = ClusterConfig(
        deployment="msmw",
        num_workers=7,
        num_byzantine_workers=2,
        num_attacking_workers=2,
        worker_attack="reversed",
        num_servers=3,
        gradient_gar="multi-krum",
        model_gar="median",
        model="logistic",
        dataset_size=200,
        num_iterations=2,
        accuracy_every=2,
        shards=SHARDS,
        seed=3,
    )
    with Session(config=config) as session:
        deployment = session.deployment
        session.step()
        result = session.step()
        server = session.reporting_server
        charge = deployment.transport.ledger.charge(server.node_id)
        round_nbytes = deployment.transport.ledger.round_nbytes()

    dimension, cost_model = server.dimension, deployment.cost_model
    message_bytes = message_nbytes(dimension)
    requests = config.num_workers
    replies = config.gradient_quorum()
    model_replies = deployment.replicas.quorum() - 1
    coordination = 2 * (SHARDS - 1)
    slice_framed = deployment.transport.sharded_reply_nbytes(deployment.shard_map)
    coordination_bytes = (SHARDS - 1) * (
        serialized_nbytes(replies * replies) + serialized_nbytes(replies)
    )

    assert charge.messages == requests + replies * SHARDS + model_replies + coordination
    assert charge.nbytes == (
        (requests + model_replies) * message_bytes + replies * slice_framed + coordination_bytes
    )
    assert round_nbytes == config.num_servers * charge.nbytes  # three replicas, one round each
    assert result.record.communication_time == charge.elapsed + deployment.transport.price.fabric(round_nbytes) + (
        cost_model.serialization_time(charge.nbytes, charge.messages)
    )


def test_a_coordination_hop_crosses_at_the_one_link_speed():
    """On PyTorch GPUs the link runs faster than raw 10 GbE: the coordination
    frames' latency is drawn at the price's speed, as every reply's is."""
    transport = Transport(link=LinkModel(base_latency=1e-4, jitter=0.0))
    transport.price = price = CostModel(GPU, framework=PYTORCH).network_price(strategy_class("msmw").shape)
    quorum, frames = 5, SHARDS - 1
    transport.coordinate_shards("server-0", quorum, SHARDS)
    frame_sizes = (serialized_nbytes(quorum * quorum), serialized_nbytes(quorum))
    hops = [(1e-4 + nbytes / price.bandwidth, nbytes) for nbytes in frame_sizes]
    assert transport.stats.time_communicating == pytest.approx(frames * sum(latency for latency, _ in hops), rel=1e-12)
    elapsed = sum(price.quorum([hop] * frames) for hop in hops)
    assert transport.ledger.charge("server-0").elapsed == pytest.approx(elapsed, rel=1e-12)
