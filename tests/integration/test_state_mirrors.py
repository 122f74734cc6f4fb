"""What a process-backend wave sends, and what it spends.

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

A worker computes one gradient per iteration and serves it to every replica
that asks, so a wave also leaves out what a host would drop:

* a gradient request to a worker host that already answered its iteration
  ships no model — 6 a round at n_w = 6 with two honest replicas, exactly one
  model payload each — while the ledger charges what the protocol sends;
* a restored host, or a worker that recomputes for every replica
  (``fresh_gradients_per_replica``), is sent the model every time, and the
  run stays on the serial backend's trace;
* a reply that is already due is released without a ``time.sleep``, and
  with ``wall_time_scale`` one is still held back its scaled latency.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core import Controller
from repro.core.cluster import ClusterConfig
from repro.core.session import Session
from repro.network import rpc, wire

pytestmark = [pytest.mark.slow, pytest.mark.backend("process")]

ROUNDS = 5

#: Two honest replicas of three: the attacking one pulls no gradients.
TWO_HONEST = dict(num_attacking_servers=1)


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


def _scenario(tmp_path, name="replica_crash", events=None) -> str:
    if events is None:
        events = [
            {"round": 2, "action": "crash", "target": "server-1"},
            {"round": 4, "action": "recover", "target": "server-1"},
        ]
    path = tmp_path / f"{name}.json"
    path.write_text(
        json.dumps({"name": name, "description": name, "config": {}, "events": events}),
        encoding="utf-8",
    )
    return str(path)


def _trace(executor: str, scenario: str, **overrides) -> str:
    """The canonical trace of a 7-iteration msmw run under ``scenario``."""
    config = dict(
        num_iterations=7, accuracy_every=3, learning_rate=0.2, seed=11, executor=executor, scenario=scenario
    )
    result = Controller(_msmw(**{**config, **overrides})).run()
    assert result.trace is not None
    return result.trace.to_json()


class TestReplicaCrashAndRecover:
    def test_process_trace_equals_the_serial_trace(self, tmp_path, require_process_backend):
        """The recovered replica's host is restored from its crash-time
        snapshot; every mirror queued while it was down reaches it with its
        first request, so the run stays on the serial backend's trace."""
        require_process_backend()
        scenario = _scenario(tmp_path)
        replicas = dict(num_servers=4, num_byzantine_servers=1, asynchronous=True)
        serial = _trace("serial", scenario, **replicas)
        events = [event["action"] for entry in json.loads(serial)["rounds"] for event in entry["events"]]
        assert events == ["crash", "recover"]
        assert _trace("process", scenario, **replicas) == serial


def _record_gradient_requests(monkeypatch) -> list:
    """Wrap ``send_frame``: every gradient request the coordinator sends, as ``(port, message)``."""
    sent = []
    send_frame = rpc.send_frame

    def recording_send_frame(sock, body):
        message = wire.decode_value(body)
        if message.get("op") == "pull" and message.get("kind") == "gradient":
            sent.append((sock.getpeername()[1], message))
        return send_frame(sock, body)

    monkeypatch.setattr(rpc, "send_frame", recording_send_frame)
    return sent


class TestNoPayloadTheHostWouldDrop:
    def test_a_repeated_gradient_request_ships_one_model_payload_less(
        self, monkeypatch, require_process_backend
    ):
        """Per round, the coordinator's frames are six model payloads lighter
        than those of a run whose workers recompute for every replica (the
        same frames, each request with its model) — and the ledger charges
        both runs what the serial backend charges."""
        require_process_backend()
        frames = []  # (frame bytes, decoded message) of every frame the coordinator sends
        send_frame = rpc.send_frame

        def recording_send_frame(sock, body):
            frames.append((len(body), wire.decode_value(body)))
            return send_frame(sock, body)

        monkeypatch.setattr(rpc, "send_frame", recording_send_frame)

        def run(**overrides):
            rounds, charged = [], []
            with Session(config=_msmw(**overrides)) as session:
                ledger = session.deployment.transport.ledger
                dimension = session.deployment.servers[0].dimension
                for _ in range(ROUNDS):
                    del frames[:]
                    before = ledger.stats.bytes_sent
                    session.step()
                    rounds.append(list(frames))
                    charged.append(ledger.stats.bytes_sent - before)
            return rounds, charged, dimension

        cached, cached_charges, dimension = run(**TWO_HONEST)
        fresh, fresh_charges, _ = run(fresh_gradients_per_replica=True, **TWO_HONEST)
        _, serial_charges, _ = run(executor="serial", **TWO_HONEST)
        one_model = len(wire.encode_value(np.zeros(dimension))) - len(wire.encode_value(None))

        def gradient_requests(frames_of_round):
            return [m for _, m in frames_of_round if m["op"] == "pull" and m["kind"] == "gradient"]

        for cached_round, fresh_round in zip(cached, fresh):
            requests = gradient_requests(cached_round)
            elided = [m for m in requests if m["payload"] is None]
            assert len(requests) == 12 and len(elided) == 6
            for message in elided:  # each one a repeat: its worker answered the iteration already
                firsts = [
                    m for m in requests
                    if m["node"] == message["node"] and m["payload"] is not None
                ]
                assert [m["iteration"] for m in firsts] == [message["iteration"]]
                assert firsts[0]["requester"] != message["requester"]
            assert all(m["payload"] is not None for m in gradient_requests(fresh_round))
            assert len(cached_round) == len(fresh_round)
            assert sum(n for n, _ in fresh_round) - sum(n for n, _ in cached_round) == 6 * one_model
        assert cached_charges == fresh_charges == serial_charges

    def test_a_restored_worker_host_is_sent_the_model_again(
        self, tmp_path, monkeypatch, require_process_backend
    ):
        """``worker-0`` is crashed and recovered between the two replicas'
        gradient pulls of iteration 2: the second replica's request to it
        carries the model, its siblings' do not, and the run stays on the
        serial backend's trace."""
        require_process_backend()
        scenario = _scenario(tmp_path, "calm", events=[])
        serial = _trace("serial", scenario, **TWO_HONEST)
        sent = _record_gradient_requests(monkeypatch)
        restored = []  # the recovered host's port
        pulls = rpc.SocketBackend._pulls

        def pulls_then_restore(backend, calls):
            outcomes = pulls(backend, calls)
            if calls and calls[0][1] == "gradient" and calls[0][2].iteration == 2 and not restored:
                backend.apply_control("worker-0", "crash")
                backend.apply_control("worker-0", "recover")
                restored.append(backend._hosts["worker-0"].port)
            return outcomes

        monkeypatch.setattr(rpc.SocketBackend, "_pulls", pulls_then_restore)
        assert _trace("process", scenario, **TWO_HONEST) == serial
        [port] = restored
        [first, second] = [m for _, m in sent if m["iteration"] == 2 and m["node"] == "worker-0"]
        assert [p for p, m in sent if m is second] == [port]
        assert first["payload"] is not None and second["payload"] is not None
        siblings = [
            m for _, m in sent
            if m["iteration"] == 2 and m["requester"] == second["requester"] and m["node"] != "worker-0"
        ]
        assert siblings and all(m["payload"] is None for m in siblings)

    def test_fresh_gradients_ship_the_model_on_every_request(
        self, tmp_path, monkeypatch, require_process_backend
    ):
        require_process_backend()
        scenario = _scenario(tmp_path, "calm", events=[])
        serial = _trace("serial", scenario, fresh_gradients_per_replica=True)
        sent = _record_gradient_requests(monkeypatch)
        assert _trace("process", scenario, fresh_gradients_per_replica=True) == serial
        assert sent and all(m["payload"] is not None for _, m in sent)


class TestRepliesAreReleasedWhenDue:
    def test_a_due_reply_is_released_without_a_sleep(self, monkeypatch, require_process_backend):
        require_process_backend()
        sleeps = []
        with Session(config=_msmw()) as session:
            assert session.deployment.transport.wall_time_scale == 0
            with monkeypatch.context() as patch:
                patch.setattr(rpc.time, "sleep", sleeps.append)
                for _ in range(ROUNDS):
                    session.step()
        assert sleeps == []

    def test_a_scaled_reply_is_held_back_its_latency(self, monkeypatch, require_process_backend):
        require_process_backend()
        arrivals, held = [], []  # the wave's arrival times; (waited, scaled latency) per reply
        pulls, deliver = rpc.SocketBackend._pulls, rpc.SocketBackend.deliver

        def recording_pulls(backend, calls):
            outcomes = pulls(backend, calls)
            arrivals[:] = [arrived for _, arrived in outcomes]
            return outcomes

        def recording_deliver(backend, transport, planned, kind, context):
            for index, reply in deliver(backend, transport, planned, kind, context):
                held.append((time.monotonic() - arrivals[index], transport.wall_delay(reply.latency)))
                yield index, reply

        monkeypatch.setattr(rpc.SocketBackend, "_pulls", recording_pulls)
        monkeypatch.setattr(rpc.SocketBackend, "deliver", recording_deliver)
        with Session(config=_msmw()) as session:
            session.deployment.transport.wall_time_scale = 1.0
            for _ in range(2):
                session.step()
        assert held and all(delay > 0 for _, delay in held)
        assert all(waited >= delay for waited, delay in held)
