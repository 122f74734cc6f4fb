"""Unscripted SIGKILL recovery: the supervisor against a real process kill.

Unlike ``test_process_chaos.py``, nothing here is scripted — no scenario
``crash`` event fires.  A round callback SIGKILLs a worker host mid-run, and
the node supervisor's patrol must notice the unscripted death, respawn the
host from its last state snapshot, surface the respawn as a health event in
the trace, and let training converge.  This is the end-to-end claim behind
``resilience={"retry": True, "supervise": True}``.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.core.cluster import ClusterConfig
from repro.core.session import Session

pytestmark = [
    pytest.mark.slow,
    pytest.mark.backend("process"),
    pytest.mark.resilience,
]

VICTIM = "worker-2"


def _empty_scenario(tmp_path) -> str:
    """A scenario with no events at all: the trace exists, nothing is scripted."""
    spec = {
        "name": "unscripted_recovery",
        "description": "no scripted chaos; the kill comes from outside",
        "config": {},
        "events": [],
    }
    path = tmp_path / "unscripted_recovery.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def test_supervisor_respawns_sigkilled_worker_and_run_converges(
    tmp_path, require_process_backend
):
    require_process_backend()
    config = ClusterConfig(
        deployment="ssmw",
        asynchronous=True,
        num_workers=5,
        num_byzantine_workers=1,
        gradient_gar="median",
        model="logistic",
        dataset="mnist",
        dataset_size=200,
        batch_size=8,
        learning_rate=0.2,
        num_iterations=6,
        accuracy_every=3,
        seed=11,
        executor="process",
        scenario=_empty_scenario(tmp_path),
        resilience={"retry": True, "supervise": True},
    )
    killed = {}
    with Session(config=config) as session:
        deployment = session.deployment

        def assassin(result) -> None:
            if result.iteration == 1 and not killed:
                killed["pid"] = deployment.backend.pid(VICTIM)
                os.kill(killed["pid"], signal.SIGKILL)

        session.on_round(assassin)
        session.run()
        assert session.finished

        # Process-table evidence: the host really died and really came back.
        respawned = deployment.backend.pid(VICTIM)
        assert killed["pid"] is not None
        assert respawned is not None and respawned != killed["pid"]
        assert deployment.supervisor.restarts(VICTIM) >= 1
        assert not deployment.supervisor.gave_up(VICTIM)

        # The respawn surfaced as a typed health event in the trace.
        respawns = [
            event
            for entry in deployment.trace.rounds
            if "health" in entry
            for event in entry["health"]["events"]
            if event["action"] == "respawn"
        ]
        assert respawns and respawns[0]["target"] == VICTIM
        # No scripted chaos ran: the scenario timeline stayed empty.
        assert all(not entry["events"] for entry in deployment.trace.rounds)

        # Training-level outcome: the run completed and converged anyway.
        result = session.result()
        assert result.final_accuracy is not None and result.final_accuracy > 0.8


def test_host_killed_before_the_first_round_is_handed_the_coordinators_node(
    tmp_path, require_process_backend
):
    """No host-side snapshot exists yet when the kill lands between ``build()``
    and the first ``step()``.  A revive is a spawn — the respawned host is
    handed the same coordinator-built node the dead one was — so the run is
    the un-killed run, plus one respawn event."""
    require_process_backend()
    config = ClusterConfig(
        deployment="ssmw",
        num_workers=5,
        num_byzantine_workers=1,
        gradient_gar="median",
        model="logistic",
        dataset="mnist",
        dataset_size=200,
        batch_size=8,
        learning_rate=0.2,
        num_iterations=4,
        accuracy_every=2,
        seed=11,
        executor="process",
        scenario=_empty_scenario(tmp_path),
        resilience={"supervise": True},
    )

    def run(kill: bool):
        with Session(config=config) as session:
            backend = session.deployment.backend
            if kill:
                os.kill(backend.pid(VICTIM), signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while backend.is_running(VICTIM) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not backend.is_running(VICTIM)
            session.run()
            rounds = session.deployment.trace.to_dict()["rounds"]
        respawns = [
            (event["round"], event["action"], event["target"], event.get("detail"))
            for entry in rounds
            for event in entry["health"]["events"]
            if event["action"] in ("respawn", "gave-up")
        ]
        for entry in rounds:
            entry["health"]["events"] = []
        return rounds, respawns

    calm_rounds, calm_respawns = run(kill=False)
    killed_rounds, killed_respawns = run(kill=True)
    assert calm_respawns == []
    assert killed_respawns == [(0, "respawn", VICTIM, "ok")]
    # Synchronous quorum: the victim's gradient is in every round's aggregate.
    assert all(VICTIM in entry["gradient_sources"] for entry in killed_rounds)
    assert killed_rounds == calm_rounds
