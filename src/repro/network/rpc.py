"""Socket RPC layer and subprocess node hosts for the ``process`` backend.

The paper runs every Garfield node as its own OS process speaking gRPC; this
module is our equivalent on top of :mod:`repro.network.wire`'s length-prefixed
TCP framing.  Three pieces compose:

* :class:`RpcClient` / :class:`RpcServer` — a minimal request/response
  protocol: each request is one framed message (a dict with an ``"op"``
  field), each response is ``{"ok": True, "result": ...}`` or
  ``{"ok": False, "error": <exception name>, "message": ...}``.  Connection
  failures — refused dials, resets, EOF mid-frame — are translated into
  :class:`~repro.exceptions.NodeCrashedError`, the exact type the in-process
  path raises for crashed peers, so the transport's quorum logic is
  backend-agnostic.
* The **node host** (``python -m repro.network.rpc --spec <file>``) — a
  subprocess that rebuilds the cluster world from the shared
  :class:`~repro.core.cluster.ClusterConfig` (bit-identical construction:
  same seeds, same shards), keeps the one node named in its spec, and serves
  that node's registered handlers over TCP.  Server-side state mutations
  (model updates, published aggregates) are mirrored in by ``sync`` requests
  from the coordinator, so peer pulls observe exactly the state the
  in-process path would.
* :class:`SocketBackend` — the coordinator-side
  :class:`~repro.network.transport.TransportBackend` that spawns one host per
  node, routes ``invoke`` calls over the wire and maps scenario control
  events onto process reality: ``crash`` snapshots the node's state and
  SIGKILLs the host, ``recover`` respawns it and restores the snapshot (a
  machine rejoining with its disk intact), ``partition`` means the
  coordinator never dials (connection refusal), and stragglers delay replies
  via the transport's wall-time scale.

Determinism: every random quantity is pre-sampled coordinator-side by the
transport before any byte crosses a socket, node subprocesses are seeded from
the same cluster config, and float64 tensors round-trip the wire bit-exactly
— which is why a fixed seed yields the same canonical trace as the serial
backend (``tests/integration/test_scenarios_golden.py``).
"""

from __future__ import annotations

import json
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.exceptions as _exceptions
from repro.exceptions import (
    CommunicationError,
    ConfigurationError,
    DeadlineError,
    DialError,
    GarfieldError,
    NodeCrashedError,
)
from repro.network.message import RequestContext
from repro.network.resilience import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_READ_DEADLINE,
    DEFAULT_SPAWN_DEADLINE,
    DeadlineBudget,
    RetryPolicy,
)
from repro.network.serialization import (
    PLAIN_FLOAT64,
    WireFormat,
    deserialize_vector,
    parse_wire_format,
    serialize_with_reconstruction,
)
from repro.network.transport import Handler, TransportBackend
from repro.network.wire import (
    ConnectionClosed,
    client_hello,
    encode_value,
    recv_message,
    send_frame,
    server_hello,
)

#: Response key carrying an explicitly serialized (delta-encoded) vector.
#: Delta blobs need the receiver's per-stream reference, which the generic
#: value codec cannot know, so they travel as tagged raw bytes instead.
VECTOR_BLOB_KEY = "__vector_blob__"

#: First line a node host prints on stdout once its listener is bound.
READY_PREFIX = "GARFIELD-RPC"


# ---------------------------------------------------------------------- #
# Environment probe
# ---------------------------------------------------------------------- #
_AVAILABILITY: Optional[Tuple[bool, str]] = None


def process_backend_available() -> Tuple[bool, str]:
    """Whether this environment permits the process backend at all.

    Returns ``(True, "")`` when localhost sockets can be bound and
    subprocesses spawned, else ``(False, reason)``; sandboxes that forbid
    either make the backend (and its tests) skip gracefully with the reason.
    The probe runs once per interpreter.
    """
    global _AVAILABILITY
    if _AVAILABILITY is not None:
        return _AVAILABILITY
    try:
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
    except OSError as exc:
        _AVAILABILITY = (False, f"cannot bind localhost sockets: {exc}")
        return _AVAILABILITY
    try:
        spawned = subprocess.run(
            [sys.executable, "-c", "pass"], capture_output=True, timeout=60
        )
        if spawned.returncode != 0:
            _AVAILABILITY = (
                False,
                f"python subprocess exited with {spawned.returncode}",
            )
            return _AVAILABILITY
    except (OSError, subprocess.SubprocessError) as exc:
        _AVAILABILITY = (False, f"cannot spawn subprocesses: {exc}")
        return _AVAILABILITY
    _AVAILABILITY = (True, "")
    return _AVAILABILITY


# ---------------------------------------------------------------------- #
# Client
# ---------------------------------------------------------------------- #
def _raise_remote(response: Dict[str, Any]) -> None:
    """Re-raise a remote handler failure as its local exception type."""
    name = str(response.get("error", "CommunicationError"))
    message = str(response.get("message", "remote call failed"))
    exc_cls = getattr(_exceptions, name, None)
    if isinstance(exc_cls, type) and issubclass(exc_cls, GarfieldError):
        raise exc_cls(message)
    raise CommunicationError(f"{name}: {message}")


class _PooledConnection:
    """One pooled socket plus its reusable receive scratch buffer.

    The scratch bytearray persists across rounds, so steady-state reply
    reception reuses the same staging storage frame after frame (see
    :func:`repro.network.wire.recv_frame`).
    """

    __slots__ = ("sock", "scratch")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.scratch = bytearray(64)

    def close(self) -> None:
        self.sock.close()


class RpcClient:
    """Pooled connections to one node host.

    Each :meth:`call` checks a connection out of the pool (dialling a new one
    when the pool is dry, which is what lets concurrent fan-out threads talk
    to the same host), performs one framed request/response round trip and
    returns the connection — socket and frame scratch buffer — for reuse.

    Failures are typed by phase.  The *dial* (connect + handshake) runs under
    ``connect_timeout`` and fails as :class:`~repro.exceptions.DialError`: a
    refused/reset/unanswered dial means the peer is down or unreachable, and
    dialling a local host takes milliseconds, so this budget is short.  The
    *read* of a reply frame runs under ``timeout`` (the read deadline) and
    fails as :class:`~repro.exceptions.DeadlineError`: the peer accepted the
    call but is slow or wedged — alive, just late.  Everything else mid-call
    (reset, EOF mid-frame) stays :class:`NodeCrashedError`.  Before the
    split, one flat value served both phases, making a dead peer and a
    slow-but-alive peer indistinguishable.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float = DEFAULT_READ_DEADLINE,
        wire_format: WireFormat = PLAIN_FLOAT64,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        self.address = address
        #: Read deadline: budget for the peer to produce one reply frame.
        self.timeout = timeout
        #: Dial budget: TCP connect plus the wire-format handshake.
        self.connect_timeout = connect_timeout
        #: Wire format requested in the hello of every new connection.
        self.wire_format = wire_format
        #: Format the server actually accepted (after downgrades); set by the
        #: first successful handshake and identical for every connection to
        #: the same server, since negotiation is deterministic.
        self.negotiated: Optional[WireFormat] = None
        self._free: List[_PooledConnection] = []
        self._lock = threading.Lock()
        self._closed = False

    def _checkout(self) -> _PooledConnection:
        with self._lock:
            if self._closed:
                raise NodeCrashedError(f"client for {self.address} is closed")
            if self._free:
                return self._free.pop()
        try:
            sock = socket.create_connection(self.address, timeout=self.connect_timeout)
        except OSError as exc:
            raise DialError(
                f"cannot connect to node host at {self.address}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _PooledConnection(sock)
        try:
            # The handshake is part of the dial: it still runs under the
            # (short) connect timeout inherited from create_connection.
            accepted = client_hello(sock, self.wire_format, conn.scratch)
        except (CommunicationError, OSError) as exc:
            conn.close()
            raise DialError(
                f"wire-format handshake with node host at {self.address} "
                f"failed: {exc}"
            ) from exc
        # From here on the socket carries framed calls: switch to the read
        # deadline so a slow reply fails as DeadlineError, not a stuck call.
        sock.settimeout(self.timeout)
        self.negotiated = accepted
        return conn

    def _checkin(self, conn: _PooledConnection) -> None:
        with self._lock:
            if not self._closed:
                self._free.append(conn)
                return
        conn.close()

    def call(self, message: Dict[str, Any]) -> Any:
        """One request/response round trip; returns the remote result."""
        # Encode before anything touches the socket: an unencodable payload
        # is a caller bug (plain CommunicationError), not a dead peer.
        body = encode_value(message)
        conn = self._checkout()
        try:
            send_frame(conn.sock, body)
            response = recv_message(conn.sock, conn.scratch)
        except socket.timeout as exc:
            # Must precede the OSError clause below (socket.timeout *is* an
            # OSError): the dial succeeded and the request went out, but no
            # full reply arrived within the read deadline — the peer is slow
            # or wedged, not provably dead.  The connection is mid-frame and
            # unusable; drop it.
            conn.close()
            raise DeadlineError(
                f"node host at {self.address} produced no reply within "
                f"{self.timeout:.1f}s (read deadline)"
            ) from exc
        except (ConnectionClosed, CommunicationError, OSError) as exc:
            conn.close()
            raise NodeCrashedError(
                f"node host at {self.address} died mid-call: {exc}"
            ) from exc
        self._checkin(conn)
        if not isinstance(response, dict) or "ok" not in response:
            raise CommunicationError(f"malformed RPC response: {response!r}")
        if response["ok"]:
            return response.get("result")
        _raise_remote(response)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            free, self._free = self._free, []
        for conn in free:
            conn.close()


# ---------------------------------------------------------------------- #
# Server (runs inside the node host subprocess)
# ---------------------------------------------------------------------- #
class RpcServer:
    """Threaded accept loop serving framed requests against one dispatcher."""

    def __init__(self, dispatcher: Callable[[Dict[str, Any]], Any], host: str = "127.0.0.1") -> None:
        self._dispatcher = dispatcher
        # Dispatchers that understand negotiated formats take a keyword-only
        # ``wire_format``; plain callables (the conformance fixtures roll
        # their own) are served unchanged.
        import inspect

        try:
            parameters = inspect.signature(dispatcher).parameters
            self._dispatcher_takes_format = "wire_format" in parameters
        except (TypeError, ValueError):  # builtins without signatures
            self._dispatcher_takes_format = False
        self._listener = socket.create_server((host, 0))
        self.port = self._listener.getsockname()[1]
        self._stopping = threading.Event()

    def serve_forever(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed by stop()
                break
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close races are harmless
            pass

    def _serve_connection(self, conn: socket.socket) -> None:
        # One scratch per connection, reused for every request frame this
        # peer ever sends (rounds reuse pooled connections client-side too).
        scratch = bytearray(64)
        with conn:
            # Every connection opens with a hello naming the client's wire
            # format; the accepted (possibly downgraded) format shapes every
            # response this connection will ever carry.  Requests stay plain
            # float64 — state sync must mirror bit-exactly.
            try:
                accepted = server_hello(conn, scratch)
            except (ConnectionClosed, CommunicationError, OSError):
                return  # not a protocol speaker; drop it
            encode_format = accepted.without_delta()
            while not self._stopping.is_set():
                try:
                    message = recv_message(conn, scratch)
                except (ConnectionClosed, CommunicationError, OSError):
                    return  # peer went away; nothing to answer
                try:
                    if self._dispatcher_takes_format:
                        result = self._dispatcher(message, wire_format=accepted)
                    else:
                        result = self._dispatcher(message)
                    response: Dict[str, Any] = {"ok": True, "result": result}
                except GarfieldError as exc:
                    response = {
                        "ok": False,
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    response = {
                        "ok": False,
                        "error": "CommunicationError",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                # Encode before sending: a handler result outside the wire
                # vocabulary must surface as a clear error *response*, not as
                # a silently dropped connection the client would misread as
                # the peer crashing.
                try:
                    body = encode_value(response, encode_format)
                except CommunicationError as exc:
                    body = encode_value(
                        {
                            "ok": False,
                            "error": "CommunicationError",
                            "message": f"handler result is not wire-encodable: {exc}",
                        }
                    )
                try:
                    send_frame(conn, body)
                except (CommunicationError, OSError):
                    return
                if isinstance(message, dict) and message.get("op") == "shutdown":
                    self.stop()
                    return


# ---------------------------------------------------------------------- #
# Node host (subprocess side)
# ---------------------------------------------------------------------- #
def build_probe_handlers(node_id: str) -> Dict[str, Handler]:
    """Handlers of the conformance-suite probe node.

    The same callables are registered directly for the in-process flavour of
    the conformance fixture, so both backends serve literally the same logic.
    """

    def echo(context: RequestContext) -> Any:
        return context.payload

    def scale(context: RequestContext) -> Any:
        return np.asarray(context.payload, dtype=np.float64) * 2.0

    def nap(context: RequestContext) -> Any:
        time.sleep(float(context.payload or 0.0))
        return np.asarray([float(context.iteration)])

    def silent(context: RequestContext) -> Any:
        return None

    def fail(context: RequestContext) -> Any:
        raise CommunicationError("probe handler exploded on purpose")

    def whoami(context: RequestContext) -> Any:
        return node_id

    def unencodable(context: RequestContext) -> Any:
        return {"oops": {1, 2, 3}}  # sets are outside the wire vocabulary

    return {
        "echo": echo,
        "scale": scale,
        "nap": nap,
        "silent": silent,
        "fail": fail,
        "whoami": whoami,
        "unencodable": unencodable,
    }


class _HostDispatcher:
    """Maps RPC ops onto the hosted node: pulls, state sync, chaos control."""

    def __init__(self, node_id: str, node: Optional[object], handlers: Dict[str, Handler]) -> None:
        self.node_id = node_id
        self.node = node
        self.handlers = handlers
        #: Per-stream reconstructions for delta encoding, keyed by
        #: ``(requester, kind)``: the iteration last sent on that stream and
        #: the float64 vector the *receiver* holds after decoding it (the
        #: quantized reconstruction, not the raw handler output — encoding
        #: the next delta against anything else would accumulate drift).
        self._delta_refs: Dict[Tuple[str, str], Tuple[int, np.ndarray]] = {}
        self._delta_lock = threading.Lock()

    def _serialize_pull(
        self, result: np.ndarray, message: Dict[str, Any], fmt: WireFormat
    ) -> Dict[str, Any]:
        """Encode a pull result as an explicit blob, delta-encoded when the
        client's advertised reference matches ours.

        The client sends ``have`` — the iteration of the last reconstruction
        it kept for this stream.  Only an exact match licenses a delta; any
        mismatch (first pull, crashed-and-respawned host, client that lost a
        reply mid-frame) falls back to an absolute blob, so the scheme is
        self-healing with no invalidation protocol.
        """
        key = (str(message.get("requester", "")), str(message.get("kind", "")))
        have = int(message.get("have", -1))
        with self._delta_lock:
            entry = self._delta_refs.get(key)
        reference = entry[1] if entry is not None and entry[0] == have else None
        blob, reconstruction = serialize_with_reconstruction(
            result, fmt, reference=reference
        )
        with self._delta_lock:
            self._delta_refs[key] = (int(message.get("iteration", 0)), reconstruction)
        return {VECTOR_BLOB_KEY: blob}

    def __call__(self, message: Any, wire_format: Optional[WireFormat] = None) -> Any:
        if not isinstance(message, dict) or "op" not in message:
            raise CommunicationError(f"malformed RPC request: {message!r}")
        op = message["op"]
        if op == "ping":
            return "pong"
        if op == "shutdown":
            return "bye"
        if op == "pull":
            kind = message.get("kind", "")
            handler = self.handlers.get(kind)
            if handler is None:
                raise CommunicationError(
                    f"node '{self.node_id}' serves no '{kind}' requests"
                )
            context = RequestContext(
                requester=str(message.get("requester", "")),
                iteration=int(message.get("iteration", 0)),
                payload=message.get("payload"),
            )
            result = handler(context)
            if (
                wire_format is not None
                and wire_format.delta
                and isinstance(result, np.ndarray)
                and result.dtype == np.float64
                and result.ndim == 1
            ):
                return self._serialize_pull(result, message, wire_format)
            return result
        if self.node is None:
            raise CommunicationError(f"probe host cannot serve op '{op}'")
        if op == "sync":
            what = message.get("what")
            vector = message.get("vector")
            if what == "params":
                self.node.write_model(np.asarray(vector, dtype=np.float64))
            elif what == "aggr_grad":
                self.node.latest_aggr_grad = (
                    None if vector is None else np.asarray(vector, dtype=np.float64)
                )
            else:
                raise CommunicationError(f"unknown sync target '{what}'")
            return None
        if op == "set_attack":
            from repro.attacks import build_attack

            attack = message.get("attack")
            if attack is not None:
                self.node.attack = build_attack(
                    str(attack), seed=int(message.get("seed", 0))
                )
            self.node.attack_active = bool(message.get("active", True))
            return None
        if op == "snapshot":
            return self.node.snapshot_state()
        if op == "restore":
            self.node.restore_state(message.get("state", b""))
            return None
        raise CommunicationError(f"unknown RPC op '{op}'")


def _build_host(spec: Dict[str, Any]) -> _HostDispatcher:
    """Construct the hosted node (or probe) described by a spawn spec."""
    node_id = str(spec["node_id"])
    if spec.get("probe"):
        return _HostDispatcher(node_id, None, build_probe_handlers(node_id))
    # Rebuild the whole world exactly as the coordinator did — same config,
    # same seeds, same shard assignment — then keep the one node we host.
    # Construction is cheap at simulation scale and guarantees the hosted
    # node starts bit-identical to the coordinator's copy of it.
    from repro.core.cluster import ClusterConfig
    from repro.core.controller import Controller

    config = ClusterConfig.from_dict(spec["config"])
    deployment = Controller(config).build()
    try:
        node = deployment.transport.get_node(node_id)
    except KeyError:
        raise ConfigurationError(f"spec names unknown node '{node_id}'") from None
    handlers = deployment.transport.backend.node_handlers(node_id)
    return _HostDispatcher(node_id, node, handlers)


def host_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.network.rpc``: serve one node."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.network.rpc")
    parser.add_argument("--spec", required=True, help="path to the spawn spec JSON")
    args = parser.parse_args(list(argv) if argv is not None else None)
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    dispatcher = _build_host(spec)
    server = RpcServer(dispatcher)
    print(f"{READY_PREFIX} {dispatcher.node_id} {server.port}", flush=True)
    server.serve_forever()
    return 0


# ---------------------------------------------------------------------- #
# Coordinator-side backend
# ---------------------------------------------------------------------- #
class _NodeHost:
    """Bookkeeping for one spawned node subprocess."""

    __slots__ = (
        "node_id",
        "spec_path",
        "stderr_path",
        "process",
        "port",
        "client",
        "snapshot",
        "pending",
    )

    def __init__(self, node_id: str, spec_path: Path, stderr_path: Path) -> None:
        self.node_id = node_id
        self.spec_path = spec_path
        self.stderr_path = stderr_path
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.client: Optional[RpcClient] = None
        #: Crash-time state snapshot, restored into the respawned host.
        self.snapshot: Optional[bytes] = None
        #: Control/sync messages issued while the host was down, replayed
        #: in order right after a recover's restore.
        self.pending: List[Dict[str, Any]] = []

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return text[-limit:]

    def take_snapshot(self) -> bool:
        """Best-effort: fetch the running host's state for the next restore."""
        try:
            snapshot = self.client.call({"op": "snapshot", "node": self.node_id})
        except (GarfieldError, OSError):
            return False  # already dying: the previous snapshot stands
        if isinstance(snapshot, (bytes, bytearray)):
            self.snapshot = bytes(snapshot)
            return True
        return False

    def teardown(self) -> None:
        """Leave nothing of this incarnation behind, alive or not.

        Kills the process if it still runs (SIGKILL on POSIX — no goodbye),
        collects the zombie, closes our end of its stdout pipe and drops the
        client pool, so repeated crashes, failed recovers and unscripted
        deaths cannot leak processes or file descriptors.
        """
        if self.process is not None:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            if self.process.stdout is not None:
                self.process.stdout.close()
        if self.client is not None:
            self.client.close()
            self.client = None


class SocketBackend(TransportBackend):
    """Deliver handler invocations to per-node subprocesses over TCP.

    The coordinator keeps its own (now passive) copies of every node — their
    registration populates the handler table used for planning — while the
    authoritative handler-visible state lives in the hosts.  Scenario events
    map onto process reality:

    ========== ==========================================================
    event      process-backend effect
    ========== ==========================================================
    crash      state snapshot requested, then SIGKILL of the host; pulls
               are refused at plan time exactly like the in-process path
    recover    host respawned from the same spec, crash-time snapshot
               restored, buffered control/sync messages replayed
    partition  the coordinator never dials across the cut (connection
               refusal without consuming drop randomness)
    straggler  latency factor applied to the pre-sampled reply latency;
               with ``wall_time_scale`` the reply is genuinely delayed
    ========== ==========================================================
    """

    name = "socket"
    needs_state_sync = True

    def __init__(
        self,
        config=None,
        probe_nodes: Sequence[str] = (),
        spawn_timeout: float = DEFAULT_SPAWN_DEADLINE,
        call_timeout: float = DEFAULT_READ_DEADLINE,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        available, reason = process_backend_available()
        if not available:
            raise CommunicationError(f"process backend unavailable: {reason}")
        if config is None and not probe_nodes:
            raise ConfigurationError(
                "SocketBackend needs a ClusterConfig or explicit probe nodes"
            )
        self._host_config: Optional[Dict[str, Any]] = None
        self._wire_format = PLAIN_FLOAT64
        if config is not None:
            self._wire_format = parse_wire_format(
                getattr(config, "wire_format", "float64")
            )
            # Hosts rebuild the world in-process: force the serial engine and
            # strip the scenario so they never recurse into spawning or attach
            # their own director.  The wire format is stripped too — it lives
            # in the coordinator↔host hello, and a host whose in-process
            # transport re-quantized already-quantized pulls would drift.
            host_config = dict(config.to_dict())
            host_config["executor"] = "serial"
            host_config["executor_workers"] = 0
            host_config["scenario"] = ""
            host_config["wire_format"] = "float64"
            # Resilience is a coordinator concern: hosts must not retry,
            # hedge or supervise their own in-process mirrors.
            host_config["resilience"] = {}
            self._host_config = host_config
        super().__init__()  # the shared handler table: planning-side mirror
        self._probe_nodes = list(probe_nodes)
        self.spawn_timeout = spawn_timeout
        self.call_timeout = call_timeout
        self.connect_timeout = connect_timeout
        #: When set, idempotent pulls retry under this policy (respawning
        #: hosts get re-dialled); control/sync calls never retry — they have
        #: their own buffered-replay path.
        self.retry_policy = retry_policy
        #: Observer fired as ``on_retry(node_id, attempt, error)`` before
        #: each retry sleep; the transport wires it to its stats counters.
        self.on_retry: Optional[Callable[[str, int, BaseException], None]] = None
        self._hosts: Dict[str, _NodeHost] = {}
        self._workdir: Optional[Path] = None
        self._started = False
        self._lock = threading.RLock()
        #: Coordinator-side mirror of the hosts' delta caches, keyed by
        #: ``(node_id, requester, kind)``: iteration last decoded on that
        #: stream plus its reconstruction (the delta reference).
        self._delta_refs: Dict[Tuple[str, str, str], Tuple[int, np.ndarray]] = {}
        self._delta_lock = threading.Lock()

    def node_ids(self) -> List[str]:
        ids = {node_id for node_id, _ in self._handlers}
        ids.update(self._probe_nodes)
        return sorted(ids)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._workdir = Path(tempfile.mkdtemp(prefix="repro-process-backend-"))
            try:
                for node_id in self.node_ids():
                    spec: Dict[str, Any] = {"node_id": node_id}
                    if node_id in self._probe_nodes:
                        spec["probe"] = True
                    else:
                        spec["config"] = self._host_config
                    spec_path = self._workdir / f"{node_id}.json"
                    spec_path.write_text(json.dumps(spec), encoding="utf-8")
                    self._hosts[node_id] = _NodeHost(
                        node_id, spec_path, self._workdir / f"{node_id}.stderr"
                    )
                # Spawn everything first, await readiness second: imports and
                # world construction of all hosts overlap.
                for host in self._hosts.values():
                    self._spawn(host)
                for host in self._hosts.values():
                    self._await_ready(host)
            except BaseException:
                # A host failed to come up and the deployment will never be
                # handed to the caller: reap every sibling that did spawn so
                # no orphan subprocess (or tempdir) outlives the failure.
                self.close()
                raise
            self._started = True

    def _spawn(self, host: _NodeHost) -> None:
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
        # Hash randomization never feeds the numerics, but pin it anyway so a
        # host's iteration order can not diverge from the coordinator's.
        env.setdefault("PYTHONHASHSEED", "0")
        # Append: a respawned host must not truncate the previous
        # incarnation's crash diagnostics (stderr_tail reports them).
        stderr_handle = open(host.stderr_path, "ab")
        try:
            host.process = subprocess.Popen(
                [sys.executable, "-m", "repro.network.rpc", "--spec", str(host.spec_path)],
                stdout=subprocess.PIPE,
                stderr=stderr_handle,
                env=env,
            )
        finally:
            stderr_handle.close()
        host.port = None
        host.client = None

    def _await_ready(self, host: _NodeHost) -> None:
        process = host.process
        assert process is not None and process.stdout is not None

        def _abort(reason: str) -> CommunicationError:
            # Every failure path must reap the host before surfacing (a
            # malformed ready line means a *running* process nobody would
            # otherwise stop).
            host.teardown()
            return CommunicationError(reason)

        fd = process.stdout.fileno()
        os.set_blocking(fd, False)
        budget = DeadlineBudget(self.spawn_timeout)
        buffer = b""
        while b"\n" not in buffer:
            if process.poll() is not None:
                raise _abort(
                    f"node host '{host.node_id}' exited with {process.returncode} "
                    f"before becoming ready: {host.stderr_tail()}"
                )
            if budget.expired():
                raise _abort(
                    f"node host '{host.node_id}' not ready within "
                    f"{budget.total:.0f}s: {host.stderr_tail()}"
                )
            # Each select draws a short slice of whatever budget remains.
            readable, _, _ = select.select(
                [fd], [], [], min(0.05, max(budget.remaining(), 1e-3))
            )
            if readable:
                chunk = os.read(fd, 4096)
                if chunk:
                    buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode("utf-8", errors="replace").split()
        if len(line) != 3 or line[0] != READY_PREFIX or line[1] != host.node_id:
            raise _abort(
                f"node host '{host.node_id}' printed a malformed ready line: {line}"
            )
        host.port = int(line[2])
        host.client = RpcClient(
            ("127.0.0.1", host.port),
            timeout=self.call_timeout,
            wire_format=self._wire_format,
            connect_timeout=self.connect_timeout,
        )

    def close(self) -> None:
        with self._lock:
            for host in self._hosts.values():
                if host.client is not None:
                    try:
                        host.client.call({"op": "shutdown"})
                    except (GarfieldError, OSError):
                        pass
                host.teardown()
            self._hosts.clear()
            if self._workdir is not None:
                shutil.rmtree(self._workdir, ignore_errors=True)
                self._workdir = None
            self._started = False

    # ------------------------------------------------------------------ #
    # Introspection (used by the chaos tests and ProcessDeployment)
    # ------------------------------------------------------------------ #
    def pid(self, node_id: str) -> Optional[int]:
        """OS pid of the node's host, or ``None`` when it is down."""
        host = self._hosts.get(node_id)
        if host is None or not host.running:
            return None
        return host.process.pid

    def is_running(self, node_id: str) -> bool:
        host = self._hosts.get(node_id)
        return host is not None and host.running

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #
    def _live_client(self, node_id: str) -> RpcClient:
        host = self._hosts.get(node_id)
        if host is None:
            raise CommunicationError(f"no process host for node '{node_id}'")
        if host.client is None or not host.running:
            raise NodeCrashedError(f"node host '{node_id}' is not running")
        return host.client

    def invoke(self, node_id: str, kind: str, context: RequestContext) -> Any:
        if not self._started:
            raise CommunicationError("socket backend not started")
        message: Dict[str, Any] = {
            "op": "pull",
            "node": node_id,
            "kind": kind,
            "requester": context.requester,
            "iteration": context.iteration,
            "payload": context.payload,
        }
        entry = None
        if self._wire_format.delta:
            key = (node_id, context.requester, kind)
            with self._delta_lock:
                entry = self._delta_refs.get(key)
            # Advertise which reconstruction we hold; the host delta-encodes
            # only on an exact match, so a crash on either side simply costs
            # one absolute-encoded reply.
            message["have"] = entry[0] if entry is not None else -1
        if self.retry_policy is not None:
            # Pulls are idempotent reads: safe to retry.  The client lookup
            # is inside the attempt so a host respawned between attempts
            # (by the supervisor) is re-resolved and re-dialled.
            def _notify(attempt: int, error: BaseException) -> None:
                if self.on_retry is not None:
                    self.on_retry(node_id, attempt, error)

            result = self.retry_policy.call(
                lambda: self._live_client(node_id).call(message),
                key=node_id,
                on_retry=_notify,
            )
        else:
            result = self._live_client(node_id).call(message)
        if isinstance(result, dict) and VECTOR_BLOB_KEY in result:
            reference = entry[1] if entry is not None else None
            decoded = deserialize_vector(
                result[VECTOR_BLOB_KEY], copy=True, reference=reference
            )
            if self._wire_format.delta:
                with self._delta_lock:
                    self._delta_refs[key] = (context.iteration, decoded)
            return decoded
        return result

    def _buffer_if_down(self, node_id: str, message: Dict[str, Any]) -> bool:
        """Queue ``message`` for post-recover replay when the host is down.

        Sync messages are deduplicated per target (only the latest state
        matters); control messages are kept in order.  Returns whether the
        message was buffered.
        """
        with self._lock:
            host = self._hosts.get(node_id)
            if host is None or host.running:
                return False
            if message["op"] == "sync":
                host.pending = [
                    m
                    for m in host.pending
                    if not (m["op"] == "sync" and m["what"] == message["what"])
                ]
            host.pending.append(message)
            return True

    def _call_or_buffer(self, node_id: str, message: Dict[str, Any]) -> None:
        """Deliver a control/sync message, buffering it if the host is down.

        The down-check and the RPC cannot be atomic (holding the lock across
        the call would serialize against a concurrent crash's snapshot RPC),
        so a crash landing mid-call is caught and re-checked: if the host
        died, the message joins the replay queue instead of surfacing a
        NodeCrashedError out of Server.update_model or the director.
        """
        if self._buffer_if_down(node_id, message):
            return
        try:
            self._live_client(node_id).call(message)
        except NodeCrashedError:
            if not self._buffer_if_down(node_id, message):
                raise

    def sync_state(self, node_id: str, what: str, vector: Any) -> None:
        self._call_or_buffer(
            node_id, {"op": "sync", "node": node_id, "what": what, "vector": vector}
        )

    # ------------------------------------------------------------------ #
    # Scenario control
    # ------------------------------------------------------------------ #
    def apply_control(self, node_id: str, op: str, **params: Any) -> None:
        if not self._started:
            return
        if op == "crash":
            self._crash(node_id)
        elif op == "recover":
            self._recover(node_id)
        else:
            self._call_or_buffer(node_id, {"op": op, "node": node_id, **params})

    def _crash(self, node_id: str) -> None:
        """Snapshot the node's state, then SIGKILL its host.

        The snapshot is what lets a later ``recover`` behave like a machine
        rebooting with its disk intact — mini-batch cursor, momentum and
        attack RNG continue where they stopped, exactly as the in-process
        backends' logical crash does.
        """
        with self._lock:
            host = self._hosts.get(node_id)
            if host is None or not host.running:
                return
            host.take_snapshot()
            host.teardown()

    def _recover(self, node_id: str) -> None:
        with self._lock:
            host = self._hosts.get(node_id)
            if host is None or host.running:
                return
            self._spawn(host)
            self._await_ready(host)
            if host.snapshot is not None:
                host.client.call(
                    {"op": "restore", "node": node_id, "state": host.snapshot}
                )
            pending, host.pending = host.pending, []
        for message in pending:
            host.client.call(message)

    # ------------------------------------------------------------------ #
    # Supervisor surface (unscripted deaths — no scenario event involved)
    # ------------------------------------------------------------------ #
    def reap(self, node_id: str) -> None:
        """Collect a host that died *without* a scripted crash.

        A scripted ``crash`` kills, waits and closes in one step; an
        unscripted SIGKILL (a chaos test, the OOM killer) leaves a zombie
        process, an open stdout pipe and a client pool full of dead sockets.
        This clears all three so a subsequent respawn starts clean.
        """
        with self._lock:
            host = self._hosts.get(node_id)
            if host is None or host.process is None or host.running:
                return
            host.teardown()

    def snapshot_now(self, node_id: str) -> bool:
        """Best-effort state snapshot of a *running* host.

        A SIGKILL leaves no chance to snapshot at death (unlike the scripted
        crash path), so the supervisor checkpoints proactively: the last
        successful snapshot is what a later :meth:`revive` restores.
        Returns whether a snapshot was captured.
        """
        with self._lock:
            host = self._hosts.get(node_id)
            if host is None or host.client is None or not host.running:
                return False
            return host.take_snapshot()

    def revive(self, node_id: str) -> bool:
        """Reap a dead host and respawn it from its last snapshot.

        The supervisor's one-call recovery: reap (collect the zombie, close
        stale fds), respawn, restore the newest snapshot, replay buffered
        control/sync messages.  Returns whether the host came back up; a
        failed respawn is reported, not raised — the caller owns the restart
        budget and the declare-dead decision.
        """
        self.reap(node_id)
        try:
            self._recover(node_id)
        except (GarfieldError, OSError):
            return False
        return self.is_running(node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SocketBackend(nodes={len(self._hosts) or len(self.node_ids())}, started={self._started})"


def main() -> int:  # pragma: no cover - exercised via subprocess
    return host_main()


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
