"""The run's charge and the figures' price are one model.

Every registered strategy runs one synchronous round at f = 0 under plain
averaging, on both paper testbeds' device and framework.  The round
accountant's record then equals what
:class:`~repro.apps.throughput.ThroughputModel` prices for the same cluster at
the run's own ``d``: the communication time (the model re-prices its replayed
round; the replay runs at the default seed, as these rounds do, so both draw
the same link jitter), the computation time at the model's compute intensity
and the aggregation time, pipelined on PyTorch.  Both price only the messages
that cross a link: in the per-worker layout ``server-k`` asks ``worker-k`` on
its own machine, and that pull costs nothing and is not one of Figure 9's
messages.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.apps.throughput import ThroughputModel, messages_per_round
from repro.core.cluster import ClusterConfig
from repro.core.session import Session, available_applications

TESTBEDS = {
    "cpu-tensorflow": dict(device="cpu", framework="tensorflow"),
    "gpu-pytorch": dict(device="gpu", framework="pytorch"),
}


@lru_cache(maxsize=None)
def first_round(deployment: str, model: str, testbed: str):
    """The first round's record of ``deployment``, and the config and ``d`` it ran at."""
    config = ClusterConfig.fitted(
        deployment, num_workers=5, num_servers=3, model=model, dataset="mnist", dataset_size=100,
        batch_size=4, gradient_gar="average", model_gar="average", num_iterations=1, **TESTBEDS[testbed],
    )
    with Session(config=config) as session:
        record = session.step().record
        dimension = session.reporting_server.dimension
    return record, ThroughputModel(config, model=model, dimension=dimension)


@pytest.mark.parametrize("model", ["logistic", "mnist_cnn"])
@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
@pytest.mark.parametrize("deployment", available_applications())
def test_the_accountant_charges_what_the_model_prices(deployment, testbed, model):
    record, priced = first_round(deployment, model, testbed)
    assert record.communication_time == pytest.approx(priced.communication_time(deployment), rel=1e-9, abs=0)


@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
@pytest.mark.parametrize("deployment", available_applications())
def test_the_accountant_aggregates_at_the_models_price(deployment, testbed):
    record, priced = first_round(deployment, "logistic", testbed)
    assert record.aggregation_time == priced.aggregation_time(deployment)


@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
def test_a_cnn_round_computes_at_the_models_intensity(testbed):
    record, priced = first_round("ssmw", "mnist_cnn", testbed)
    assert record.compute_time == priced.computation_time()


def machine(config: ClusterConfig, node: str) -> str:
    """The placement rule, spelled out: a per-worker server shares its worker's machine."""
    return node.replace("server", "worker") if config.shape.servers == "per-worker" else node


@pytest.mark.parametrize("deployment", available_applications())
def test_a_round_is_charged_only_for_what_crosses_a_link(deployment):
    config = ClusterConfig.fitted(
        deployment, num_workers=5, num_servers=3, model="logistic", dataset="mnist", dataset_size=100,
        batch_size=4, gradient_gar="average", model_gar="average", num_iterations=1,
    )
    pulls = []
    with Session(config=config) as session:
        transport = session.deployment.transport
        pull_many = transport.pull_many

        def recording(source, destinations, kind, quorum, iteration=0, payload=None, sink=None, shard_map=None):
            replies, elapsed = pull_many(source, destinations, kind, quorum, iteration, payload, sink, shard_map)
            pulls.append((source, destinations, kind, payload, replies))
            return replies, elapsed

        transport.pull_many = recording
        session.step()
        charges = {source: transport.ledger.charge(source) for source, *_ in pulls}
        round_nbytes = transport.ledger.round_nbytes()

    expected = {source: [0, 0, 0.0] for source in charges}
    counts = dict(model_messages=0, gradient_messages=0, server_model_messages=0)
    for source, destinations, kind, payload, replies in pulls:
        remote = [reply for reply in replies if machine(config, reply.source) != machine(config, source)]
        shipped = 0 if payload is None else transport.vector_nbytes(payload.size)
        requests = sum(machine(config, peer) != machine(config, source) for peer in destinations) if shipped else 0
        charge = expected[source]
        charge[0] += requests + len(remote)
        charge[1] += requests * shipped + sum(reply.nbytes for reply in remote)
        charge[2] += transport.price.quorum([(reply.latency, reply.nbytes) for reply in remote], requests * shipped)
        counts["model_messages"] += requests
        counts["gradient_messages" if kind == "gradient" else "server_model_messages"] += len(remote)
    for source, (messages, nbytes, elapsed) in expected.items():
        assert (charges[source].messages, charges[source].nbytes) == (messages, nbytes)
        assert charges[source].elapsed == pytest.approx(elapsed, rel=1e-12)
    assert round_nbytes == sum(nbytes for _, nbytes, _ in expected.values())
    assert messages_per_round(deployment, config.num_workers, config.num_servers) == counts
