"""State mirrors over sockets: they cost no frame, and they are never stale.

Under ``executor="process"`` a server replica's model lives twice: in the
coordinator, which aggregates and steps it, and in the replica's host, which
serves it to peer pulls.  Every model change is mirrored to the host, and a
mirror rides on the next request the host gets instead of travelling as a
request of its own.  These tests pin both halves of that contract:

* the coordinator sends exactly one frame per pull (no control events run),
  and each host's next request carries the newest ``params`` mirror queued
  for it — never one a later mirror replaced, never none when one is due;
* a replica that crashes and recovers between mirrors ends up serving the
  state it would serve in process: an asynchronous msmw run with ``server-1``
  down for two rounds leaves the serial backend's trace, byte for byte.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import Controller
from repro.core.cluster import ClusterConfig
from repro.core.session import Session
from repro.network import rpc, wire

pytestmark = [pytest.mark.slow, pytest.mark.backend("process")]

ROUNDS = 5


def _msmw(**overrides) -> ClusterConfig:
    config = dict(
        deployment="msmw",
        num_workers=6,
        num_byzantine_workers=1,
        num_servers=3,
        num_byzantine_servers=1,
        gradient_gar="multi-krum",
        model_gar="median",
        model="logistic",
        dataset="mnist",
        dataset_size=200,
        batch_size=8,
        seed=3,
        executor="process",
    )
    config.update(overrides)
    return ClusterConfig(**config)


class TestMirrorsRideOnRequests:
    def test_a_mirror_costs_no_frame_and_is_never_stale(self, monkeypatch, require_process_backend):
        require_process_backend()
        log = []  # ("mirror", node, vector) and ("frame", port, params vectors carried)
        sync_state = rpc.SocketBackend.sync_state
        send_frame = rpc.send_frame

        def recording_sync_state(backend, node_id, what, vector):
            if what == "params":
                log.append(("mirror", node_id, np.array(vector)))
            return sync_state(backend, node_id, what, vector)

        def recording_send_frame(sock, body):
            message = wire.decode_value(body)
            carried = [
                np.asarray(entry["vector"])
                for entry in message.get("outbox", ())
                if entry["op"] == "mirror" and entry["what"] == "params"
            ]
            log.append(("frame", sock.getpeername()[1], carried))
            return send_frame(sock, body)

        monkeypatch.setattr(rpc.SocketBackend, "sync_state", recording_sync_state)
        monkeypatch.setattr(rpc, "send_frame", recording_send_frame)
        with Session(config=_msmw()) as session:
            ledger = session.deployment.transport.ledger
            frames, pulls = [], []
            for _ in range(ROUNDS):
                before_frames, before_pulls = len(log), ledger.stats.pulls_issued
                session.step()
                frames.append(sum(entry[0] == "frame" for entry in log[before_frames:]))
                pulls.append(ledger.stats.pulls_issued - before_pulls)
            hosts = session.deployment.backend._hosts
            node_of = {host.port: node_id for node_id, host in hosts.items()}

        # One frame per pull, and none of its own for any of the mirrors.
        assert all(count > 0 for count in pulls)
        assert frames == pulls

        due = {}  # node -> the newest params mirror no frame has carried yet
        for kind, where, vectors in log:
            if kind == "mirror":
                due[where] = vectors
                continue
            node = node_of[where]
            if node in due:
                # The newest mirror, exactly once: a replaced one never ships.
                assert len(vectors) == 1, f"{node} was sent {len(vectors)} params mirrors"
                assert np.array_equal(vectors[0], due.pop(node))
            else:
                assert vectors == [], f"{node} was sent a params mirror it already had"


def _scenario(tmp_path) -> str:
    path = tmp_path / "replica_crash.json"
    path.write_text(
        json.dumps(
            {
                "name": "replica_crash",
                "description": "a server replica is down for rounds 2 and 3",
                "config": {},
                "events": [
                    {"round": 2, "action": "crash", "target": "server-1"},
                    {"round": 4, "action": "recover", "target": "server-1"},
                ],
            }
        ),
        encoding="utf-8",
    )
    return str(path)


class TestReplicaCrashAndRecover:
    def test_process_trace_equals_the_serial_trace(self, tmp_path, require_process_backend):
        """The recovered replica's host is restored from its crash-time
        snapshot; every mirror queued while it was down reaches it with its
        first request, so the run stays on the serial backend's trace."""
        require_process_backend()
        scenario = _scenario(tmp_path)

        def trace(executor: str) -> str:
            config = _msmw(
                num_servers=4,
                num_byzantine_servers=1,
                asynchronous=True,
                num_iterations=7,
                accuracy_every=3,
                learning_rate=0.2,
                seed=11,
                executor=executor,
                scenario=scenario,
            )
            result = Controller(config).run()
            assert result.trace is not None
            return result.trace.to_json()

        serial = trace("serial")
        events = [event["action"] for entry in json.loads(serial)["rounds"] for event in entry["events"]]
        assert events == ["crash", "recover"]
        assert trace("process") == serial
