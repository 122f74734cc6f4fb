"""The run's charge and the figures' price are one model.

Every registered strategy runs one synchronous round at f = 0 under plain
averaging, on both paper testbeds' device and framework.  The round
accountant's record then equals what
:class:`~repro.apps.throughput.ThroughputModel` prices for the same cluster at
the run's own ``d``: the communication time (the model re-prices its replayed
round; the replay runs at the default seed, as these rounds do, so both draw
the same link jitter), the computation time at the model's compute intensity
and the aggregation time, pipelined on PyTorch.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.apps.throughput import ThroughputModel
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
