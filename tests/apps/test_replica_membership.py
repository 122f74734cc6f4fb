"""One membership for both tiers: a dead server replica leaves the model phase.

msmw and decentralized pull their model rows (and decentralized's contract
rows) from the replica membership, ``Deployment.replicas``, the twin of the
worker membership.  An honest replica crashes at round 1 and never
recovers; once the liveness layer declares it dead:

* it is no longer a pull target, and it runs no round of its own — it pulls
  nothing and stops updating;
* every model GAR call receives ``replicas.quorum()`` rows at the declared f;
* metrics come from a live replica (``Deployment.primary`` moves on).

Before the replica ledger existed the crashed replica was pulled, and itself
pulled and updated, every round until the run ended.  The process-backend
cell drives the other way in: a server host SIGKILLed past the supervisor's
restart budget lands in the replica membership and the health payload.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.scenario import ScenarioDirector, ScenarioEvent, ScenarioSpec
from repro.core.session import Session
from repro.detection.membership import DEAD

pytestmark = pytest.mark.resilience

VICTIM = "server-0"  # the primary: its death also moves the reporting replica

COMMON = dict(
    model="logistic",
    dataset="mnist",
    dataset_size=240,
    batch_size=8,
    learning_rate=0.2,
    num_iterations=6,
    accuracy_every=3,
    seed=5,
    resilience={"retry": True},
)


def crashed_at_round_one(config: ClusterConfig, monkeypatch):
    """Run ``config`` with ``VICTIM`` crashed at round 1; return what was seen.

    Returns the session, its round results, every quorum pull as ``(round,
    source, kind, destinations)``, every model-GAR call as ``(round, n, f,
    rows)`` and the reporting replica of each round.
    """
    deployment = Controller(config).build()
    crash = ScenarioEvent.from_dict({"round": 1, "action": "crash", "target": VICTIM})
    deployment.director = ScenarioDirector(
        ScenarioSpec(name="replica-crash", config={}, events=[crash]), deployment
    )
    session = Session(deployment)
    current = {"round": -1}
    session.on_round_start(lambda _session, iteration, _events: current.update(round=iteration))

    pulls, model_calls, reporters = [], [], []
    pull_many = deployment.transport.pull_many

    def spy(source, destinations, kind, quorum, **kwargs):
        pulls.append((current["round"], source, kind, tuple(destinations)))
        return pull_many(source, destinations, kind, quorum, **kwargs)

    deployment.transport.pull_many = spy
    model_rule = type(deployment.model_gar)
    aggregate_matrix = model_rule.aggregate_matrix

    def counted(gar, matrix):
        model_calls.append((current["round"], gar.n, gar.f, len(matrix)))
        return aggregate_matrix(gar, matrix)

    monkeypatch.setattr(model_rule, "aggregate_matrix", counted)
    session.on_round(lambda _result: reporters.append(session.reporting_server.node_id))
    with session:
        results = list(session)
    return session, results, pulls, model_calls, reporters


def assert_dead_replica_left_the_model_phase(session, results, pulls, model_calls, reporters):
    deployment = session.deployment
    after = [pull for pull in pulls if pull[0] >= 2]
    assert after
    assert not [pull for pull in after if VICTIM in pull[3]], "the dead replica is still pulled"
    assert not [pull for pull in after if pull[1] == VICTIM], "the dead replica still runs rounds"
    assert deployment.servers[0].iterations_run == 2  # rounds 0 and 1 only
    assert set(reporters[2:]) == {"server-1"}
    # The crash round itself still pulled the victim and was refused.
    assert any(VICTIM in pull[3] for pull in pulls if pull[0] == 1)

    replicas = deployment.replicas
    assert results[1].health["dead"] == [VICTIM]
    assert replicas.excluded(DEAD) == (VICTIM,)
    assert deployment.primary.node_id == "server-1"
    sized = {(n, f, rows) for round_index, n, f, rows in model_calls if round_index >= 2}
    assert sized == {(replicas.quorum(), deployment.model_gar.f, replicas.quorum())}
    assert replicas.quorum() == deployment.model_gar.n - 1


def test_msmw_async_dead_replica_is_neither_pulled_nor_waited_for(monkeypatch):
    config = ClusterConfig(
        deployment="msmw",
        asynchronous=True,
        num_workers=7,
        num_byzantine_workers=1,
        num_servers=4,
        num_byzantine_servers=1,
        gradient_gar="median",
        # Rows 3 -> 2 at f_ps = 1: average (f + 1 rows) still holds, median
        # (2f + 1) would refuse the death (see test_health).
        model_gar="average",
        **COMMON,
    )
    observed = crashed_at_round_one(config, monkeypatch)
    assert_dead_replica_left_the_model_phase(*observed)
    _, _, pulls, _, _ = observed
    # Each live replica pulls its 2 live peers and awaits quorum - 1 = 1.
    assert {len(pull[3]) for pull in pulls if pull[0] >= 2 and pull[2] == "model"} == {2}


def test_a_death_that_would_starve_the_model_gar_is_refused(monkeypatch):
    """Median needs 2 f_ps + 1 = 3 rows, and the three of async msmw with
    four replicas are all there is: the crashed replica is scored, but the
    guard keeps it ``suspect`` and pulled, and the rule keeps its size."""
    config = ClusterConfig(
        deployment="msmw",
        asynchronous=True,
        num_workers=7,
        num_byzantine_workers=1,
        num_servers=4,
        num_byzantine_servers=1,
        gradient_gar="trimmed-mean",
        model_gar="median",
        **COMMON,
    )
    session, results, pulls, model_calls, _ = crashed_at_round_one(config, monkeypatch)
    assert [r.health["statuses"].get(VICTIM) for r in results[1:]] == ["suspect"] * 5
    peer_pulls = [p for p in pulls if p[0] >= 2 and p[1] != VICTIM and p[2] == "model"]
    assert peer_pulls and all(VICTIM in pull[3] for pull in peer_pulls)
    assert {(n, f, rows) for _, n, f, rows in model_calls} == {(3, 1, 3)}
    assert session.deployment.replicas.excluded(DEAD) == ()


def test_decentralized_dead_node_leaves_models_and_contraction(monkeypatch):
    config = ClusterConfig(
        deployment="decentralized",
        num_workers=6,
        num_byzantine_workers=1,
        gradient_gar="median",
        model_gar="trimmed-mean",
        non_iid=True,
        **COMMON,
    )
    observed = crashed_at_round_one(config, monkeypatch)
    assert_dead_replica_left_the_model_phase(*observed)
    _, _, pulls, _, _ = observed
    contraction = [pull for pull in pulls if pull[2] == "aggregated_gradient"]
    assert {len(pull[3]) for pull in contraction if pull[0] >= 2} == {4}
    # The node's worker half is a separate node and keeps serving gradients.
    assert any("worker-0" in pull[3] for pull in pulls if pull[0] >= 2)


def test_decentralized_death_that_would_starve_the_contract_rule_is_refused(monkeypatch):
    """The contract step runs the gradient rule on replica rows: Krum needs
    2 f + 3 = 5 of them, and the five of six nodes at f = 1 are all there is.
    Median alone (3) would allow the death; the guard answers to Krum, so the
    crashed node stays ``suspect`` and pulled, and the run completes."""
    config = ClusterConfig(
        deployment="decentralized",
        num_workers=6,
        num_byzantine_workers=1,
        gradient_gar="krum",
        model_gar="median",
        non_iid=True,
        **COMMON,
    )
    session, results, pulls, model_calls, _ = crashed_at_round_one(config, monkeypatch)
    assert len(results) == config.num_iterations
    assert [r.health["statuses"].get(VICTIM) for r in results[1:]] == ["suspect"] * 5
    contraction = [p for p in pulls if p[0] >= 2 and p[1] != VICTIM and p[2] == "aggregated_gradient"]
    assert contraction and all(VICTIM in pull[3] for pull in contraction)
    assert {(n, f, rows) for _, n, f, rows in model_calls} == {(5, 1, 5)}
    assert session.deployment.replicas.excluded(DEAD) == ()


@pytest.mark.slow
@pytest.mark.backend("process")
def test_server_past_its_restart_budget_leaves_the_replicas(require_process_backend):
    require_process_backend()
    config = ClusterConfig(
        deployment="msmw",
        asynchronous=True,
        num_workers=5,
        num_byzantine_workers=1,
        num_servers=4,
        num_byzantine_servers=1,
        gradient_gar="median",
        model_gar="average",
        executor="process",
        **{**COMMON, "num_iterations": 4, "resilience": {"supervise": True}},
    )
    victim = "server-1"
    with Session(config=config) as session:
        deployment = session.deployment
        deployment.supervisor.restart_budget = 0  # the first unscripted death is final

        def assassin(result) -> None:
            if result.iteration == 0:
                os.kill(deployment.backend.pid(victim), signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while deployment.backend.is_running(victim) and time.monotonic() < deadline:
                    time.sleep(0.01)

        session.on_round(assassin)
        results = list(session)
        supervisor_actions = [
            event["action"]
            for result in results
            for event in (result.health or {}).get("events", ())
            if event["action"] in ("respawn", "gave-up")
        ]
        assert supervisor_actions == ["gave-up"]
        assert results[1].health["dead"] == [victim]
        assert deployment.servers[1].iterations_run == 2  # rounds 0 and 1
        assert deployment.replicas.excluded(DEAD) == (victim,)
        assert deployment.membership.excluded(DEAD) == ()
