"""One admission rule: what ``ClusterConfig.validate`` accepts runs.

For every registered strategy, a grid of cluster sizes near the GARs'
resilience bounds — (n_w, f_w) × (n_ps, f_ps) × GAR × ``asynchronous`` ×
``shards`` — is put to ``ClusterConfig``.  A config it refuses raises
:class:`ConfigurationError` at construction and nothing else; a config it
accepts runs round 0 on the serial backend.  The fuzzer draws only sizes
near each shape's minimum; this grid covers the edges it never draws, such
as a one-node decentralized cluster, which once validated and then failed in
round 0 for want of a peer.

The grid is 2688 configs per run, 556 of them accepted, about 1.5 s on a
2-vCPU container.  A second, smaller grid does the same for the dataset's
size against the worker count, the test split and non-iid partitioning.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.cluster import ClusterConfig
from repro.core.session import Session, available_applications
from repro.exceptions import ConfigurationError, GarfieldError

WORKERS = [(1, 0), (2, 0), (3, 0), (3, 1), (4, 1), (5, 1), (7, 1)]
SERVERS = [(1, 0), (2, 0), (3, 1), (4, 1)]
#: Minimum inputs at f = 1: 1, 3, 5 and 7.
GARS = ["average", "median", "multi-krum", "bulyan"]


def admitted(grid):
    """The configs of ``grid`` (dicts of fields) that validate accepts."""
    for fields in grid:
        try:
            yield ClusterConfig(model="logistic", batch_size=1, num_iterations=1, **fields)
        except ConfigurationError:
            continue


def round_zero_failures(configs):
    failures = []
    for config in configs:
        try:
            with Session(config=config) as session:
                session.step()
        except GarfieldError as error:
            failures.append(f"{config.to_dict()}: {error!r}")
    return failures


@pytest.mark.parametrize("deployment", available_applications())
def test_every_admitted_cluster_runs_round_zero(deployment):
    configs = list(admitted(
        dict(deployment=deployment, num_workers=nw, num_byzantine_workers=fw, num_servers=nps,
             num_byzantine_servers=fps, gradient_gar=gar, model_gar=gar, asynchronous=asynchronous,
             shards=shards, dataset_size=10 * nw)
        for (nw, fw), (nps, fps), gar, asynchronous, shards in itertools.product(
            WORKERS, SERVERS, GARS, (False, True), (1, 2)
        )
    ))
    assert configs
    assert not round_zero_failures(configs)


def test_every_admitted_dataset_size_runs_round_zero():
    configs = list(admitted(
        dict(num_workers=nw, dataset_size=size, test_fraction=fraction, non_iid=non_iid)
        for nw, size, fraction, non_iid in itertools.product(
            (1, 3, 9, 12), (9, 10, 11, 12, 15), (0.2, 0.5, 0.9), (False, True)
        )
    ))
    assert configs
    assert not round_zero_failures(configs)
