"""A Byzantine worker within f that sends a NaN stops nothing.

Every robust rule ranks a non-finite row last (``repro.aggregators.base.rank``)
and counts a NaN as the largest value of its column, so one worker writing a
NaN into its gradient is absorbed like any other outlier: training goes on,
on every backend, and the detectors single that worker out without losing
sight of the others.  The attack is defined here, not under ``attacks/``: it
is a probe of the policy, not a behaviour the paper evaluates.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.aggregators.base import GAR_REGISTRY
from repro.attacks.base import ATTACK_REGISTRY, Attack
from repro.core.cluster import ClusterConfig
from repro.core.session import Session

ROBUST_RULES = ("krum", "multi-krum", "mda", "median", "trimmed-mean", "meamed", "bulyan", "geometric-median")


class NanCoordinate(Attack):
    """The honest gradient with NaN in coordinate 0."""

    name = "nan-coordinate"

    def craft(self, honest_vector, peer_vectors=None):
        crafted = honest_vector.copy()
        crafted[0] = np.nan
        return crafted


@pytest.fixture
def nan_attack(monkeypatch):
    monkeypatch.setitem(ATTACK_REGISTRY, NanCoordinate.name, NanCoordinate)
    # Process hosts unpickle the attacking worker, so they must import this module.
    here = str(Path(__file__).resolve().parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")])))


def nan_config(rule: str, **overrides) -> ClusterConfig:
    workers = GAR_REGISTRY[rule].minimum_inputs(1)
    base = dict(
        deployment="ssmw",
        num_workers=workers,
        num_byzantine_workers=1,
        num_attacking_workers=1,
        worker_attack=NanCoordinate.name,
        gradient_gar=rule,
        model="logistic",
        dataset="mnist",
        dataset_size=120,
        batch_size=8,
        num_iterations=4,
        accuracy_every=4,
        seed=5,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def run(config: ClusterConfig):
    with Session(config=config) as session:
        result = session.run()
        parameters = session.deployment.servers[0].flat_parameters()
    return result, parameters


@pytest.mark.parametrize("rule", ROBUST_RULES)
def test_one_nan_sender_within_f_does_not_stop_training(nan_attack, rule):
    result, parameters = run(nan_config(rule))
    assert len(result.metrics) == 4
    assert np.isfinite(parameters).all()


@pytest.mark.backend("process")
def test_one_nan_sender_is_absorbed_across_processes(nan_attack, require_process_backend):
    require_process_backend()
    serial = run(nan_config("krum"))
    process = run(nan_config("krum", executor="process"))
    assert len(process[0].metrics) == 4
    assert process[1].tobytes() == serial[1].tobytes()


@pytest.mark.detection
@pytest.mark.parametrize("detector", ("distance", "mad", "variance"))
def test_a_nan_sender_is_evicted_and_honest_workers_stay_unsuspected(nan_attack, detector):
    """The NaN row strikes outright; the detector scores the finite rows, so
    the NaN can neither blind it nor throw suspicion on an honest worker."""
    config = nan_config("trimmed-mean", num_workers=7, num_iterations=8, detector=detector)
    with Session(config=config) as session:
        rounds = [session.step() for _ in range(config.num_iterations)]
    evictions = [e["target"] for r in rounds for e in r.detection["events"] if e["action"] == "evict"]
    assert evictions == ["worker-6"]  # the attacking worker is the roster's tail
    for record in rounds:
        honest = {name: level for name, level in record.detection["suspicion"].items() if name != "worker-6"}
        assert set(honest.values()) == {0.0}, record.iteration
