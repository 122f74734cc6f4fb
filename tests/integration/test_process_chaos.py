"""Process-level chaos: scenario events mapped onto real OS signals.

Under ``executor="process"`` a scenario ``crash`` is not bookkeeping — the
director snapshots the node's state and SIGKILLs its host subprocess; a
``recover`` respawns the host, restores the snapshot and reconnects.  These
tests drive that machinery with real kills and assert both the process-table
evidence (pids dying and changing) and the training-level outcome (the run
reconnects and converges).

Everything here is marked ``slow`` and bounded well under 60 s; the module
skips gracefully — with the probe's reason — where the sandbox forbids
subprocesses or sockets.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import Controller
from repro.core.cluster import ClusterConfig

pytestmark = [pytest.mark.slow, pytest.mark.backend("process")]


def _scenario_file(tmp_path, name, events, extra_config=None):
    spec = {
        "name": name,
        "description": "process-chaos test timeline",
        "config": extra_config or {},
        "events": events,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def _config(scenario: str, **overrides) -> ClusterConfig:
    defaults = dict(
        deployment="ssmw",
        num_workers=5,
        num_byzantine_workers=1,
        asynchronous=True,
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
        scenario=scenario,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _pid_is_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive but not ours
        return True
    return True


class TestSigkillCrashThenRecover:
    def test_director_sigkills_worker_host_and_respawns_on_recover(
        self, tmp_path, require_process_backend
    ):
        """Round-by-round drive: crash kills the OS process, recover replaces
        it with a fresh pid and the worker serves gradients again."""
        require_process_backend()
        scenario = _scenario_file(
            tmp_path,
            "sigkill_roundtrip",
            [
                {"round": 1, "action": "crash", "target": "worker-0"},
                {"round": 3, "action": "recover", "target": "worker-0"},
            ],
        )
        config = _config(scenario)
        deployment = Controller(config).build()
        try:
            backend = deployment.backend
            server = deployment.servers[0]
            gar = deployment.gradient_gar
            quorum = config.gradient_quorum()

            pid_before = backend.pid("worker-0")
            assert pid_before is not None and _pid_is_alive(pid_before)

            sources_per_round = {}
            for iteration in range(config.num_iterations):
                deployment.begin_round(iteration)
                if iteration == 1:
                    # The crash event just fired: the host is SIGKILLed and
                    # reaped — really gone at the OS level, not flagged.
                    assert backend.pid("worker-0") is None
                    assert not _pid_is_alive(pid_before)
                if iteration == 3:
                    # The recover event respawned a fresh subprocess.
                    pid_after = backend.pid("worker-0")
                    assert pid_after is not None and pid_after != pid_before
                    assert _pid_is_alive(pid_after)
                gradients = server.get_gradient_matrix(iteration, quorum)
                sources_per_round[iteration] = list(server.last_gradient_sources)
                server.update_model(gar(gradients=gradients, f=config.num_byzantine_workers))

            # While down, the dead worker never contributed; afterwards the
            # director's reconnect lets it serve again (full-quorum pull).
            for iteration in (1, 2):
                assert "worker-0" not in sources_per_round[iteration]
            deployment.transport.pull_many(
                server.node_id,
                [w.node_id for w in deployment.workers],
                "gradient",
                quorum=config.num_workers,
                iteration=config.num_iterations,
                payload=server.flat_parameters(),
            )
        finally:
            deployment.close()

    def test_crash_recover_and_partition_heal_run_converges(
        self, tmp_path, require_process_backend
    ):
        """Full end-to-end run mixing a real SIGKILL/respawn with a
        partition/heal cycle: the director reconnects and training converges."""
        require_process_backend()
        scenario = _scenario_file(
            tmp_path,
            "sigkill_partition_mix",
            [
                {"round": 1, "action": "crash", "target": "worker-0"},
                {"round": 3, "action": "recover", "target": "worker-0"},
                {"round": 4, "action": "partition", "value": [["worker-5", "worker-6"]]},
                {"round": 6, "action": "heal"},
            ],
        )
        config = _config(
            scenario,
            num_workers=7,
            num_byzantine_workers=2,
            num_iterations=8,
            accuracy_every=4,
        )
        result = Controller(config).run()
        assert result.trace is not None
        assert len(result.trace.rounds) == config.num_iterations
        events = [e["action"] for entry in result.trace.rounds for e in entry["events"]]
        assert events == ["crash", "recover", "partition", "heal"]
        # Convergence despite the chaos: same bar the scenario benches use.
        assert result.final_accuracy is not None and result.final_accuracy > 0.8
        # While partitioned (rounds 4-5) the cut workers never reached a quorum.
        for entry in result.trace.rounds:
            if 4 <= entry["round"] < 6:
                assert not {"worker-5", "worker-6"} & set(entry["gradient_sources"])
