"""A sharded msmw round is the msmw round: one aggregate phase, one byte ledger.

With ``shards > 1`` the gradient pull returns the staged per-shard buffer and
``RoundStrategy.aggregate`` runs it, so a sharded round is sized and charged
like any other:

* after a worker is declared dead, the rule charged is the one resized for
  the rows actually aggregated, at the widest shard;
* the transport's ledger charges every message the reporting server
  exchanged to that server — requests and model replies at
  ``message_bytes(d)``, gradient replies slice-framed, coordination frames at
  their framed size — and the accountant makes one
  ``serialization_time_for_bytes`` call over that charge.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.scenario import ScenarioDirector, ScenarioEvent, ScenarioSpec
from repro.core.session import Session
from repro.network.serialization import serialized_nbytes
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

    dimension, cost_model = server.dimension, deployment.cost_model
    message_bytes = cost_model.message_bytes(dimension)
    requests = config.num_workers
    replies = config.gradient_quorum()
    model_replies = deployment.replicas.quorum() - 1
    coordination = 2 * (SHARDS - 1)
    slice_framed = deployment.transport.sharded_reply_nbytes(deployment.shard_map)
    coordination_bytes = (SHARDS - 1) * (
        serialized_nbytes(replies * replies) + serialized_nbytes(replies)
    )

    assert charge.messages == requests + replies * SHARDS + model_replies + coordination
    assert charge.vectors == requests + model_replies
    assert charge.nbytes == replies * slice_framed + coordination_bytes
    nbytes = charge.vectors * message_bytes + charge.nbytes
    assert result.record.communication_time == charge.elapsed + (
        cost_model.serialization_time_for_bytes(nbytes, charge.messages)
    )
