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
* The **node host** (``python -m repro.network.rpc --node <id>``) — a
  subprocess that starts empty, is handed its node by the coordinator's
  ``restore`` request (the bytes of :meth:`Node.snapshot_state
  <repro.core.node.Node.snapshot_state>`, rebuilt by
  :meth:`~repro.core.node.Node.from_snapshot`) and serves that node's
  handlers over TCP.  It builds nothing itself: no config, no dataset, no
  other node.  Server-side state mutations (model updates, published
  aggregates) are mirrored in by ``sync`` requests from the coordinator, so
  peer pulls observe exactly the state the in-process path would.
* :class:`SocketBackend` — the coordinator-side
  :class:`~repro.network.transport.TransportBackend` that spawns one host per
  node, routes ``invoke`` calls over the wire and maps scenario control
  events onto process reality: ``crash`` snapshots the node's state and
  SIGKILLs the host, ``recover`` respawns it and restores the snapshot (a
  machine rejoining with its disk intact), ``partition`` means the
  coordinator never dials (connection refusal), and stragglers delay replies
  via the transport's wall-time scale.  First spawn, scripted ``recover`` and
  supervisor ``revive`` are one path: spawn, await the ready line, restore.

What crosses the boundary is decided in three places and nowhere else: node
state by ``restore`` (a pickle of the coordinator's own bytes), reply vectors
in a non-default wire format by a
:class:`~repro.network.serialization.VectorStream` (the request names the
format and the reference it holds), everything else by the value codec,
always in float64.

Determinism: every random quantity is pre-sampled coordinator-side by the
transport before any byte crosses a socket, each host serves the very node
the coordinator built, and float64 tensors round-trip the wire bit-exactly
— which is why a fixed seed yields the same canonical trace as the serial
backend (``tests/integration/test_scenarios_golden.py``).
"""

from __future__ import annotations

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
    FormatLike,
    VectorStream,
    is_stream_vector,
    parse_wire_format,
)
from repro.network.transport import Handler, Transport, TransportBackend
from repro.network.wire import ConnectionClosed, encode_value, recv_message, send_frame

#: Response key carrying a reply vector as the blob of a
#: :class:`~repro.network.serialization.VectorStream` — how every wire format
#: but plain float64 travels (the value codec knows neither formats nor the
#: receiver's reference).
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

    Failures are typed by phase.  The *dial* (the TCP connect) runs under
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
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        self.address = address
        #: Read deadline: budget for the peer to produce one reply frame.
        self.timeout = timeout
        #: Dial budget: the TCP connect.
        self.connect_timeout = connect_timeout
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
        # From here on the socket carries framed calls: switch to the read
        # deadline so a slow reply fails as DeadlineError, not a stuck call.
        sock.settimeout(self.timeout)
        return _PooledConnection(sock)

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
            while not self._stopping.is_set():
                try:
                    message = recv_message(conn, scratch)
                except (ConnectionClosed, CommunicationError, OSError):
                    return  # peer went away, or never spoke the protocol
                try:
                    response: Dict[str, Any] = {
                        "ok": True,
                        "result": self._dispatcher(message),
                    }
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
                    body = encode_value(response)
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
    """Maps RPC ops onto the hosted node: pulls, state sync, chaos control.

    A host starts with no node; the coordinator's first request is the
    ``restore`` that hands it one.  A conformance probe never gets a node,
    only the ``handlers`` it is constructed with.
    """

    def __init__(self, node_id: str, handlers: Optional[Dict[str, Handler]] = None) -> None:
        self.node_id = node_id
        self.node: Optional[Any] = None
        self.handlers: Dict[str, Handler] = handlers or {}
        #: Sender ends, keyed ``(requester, kind, format)``.  They die with
        #: the process; the requester's ``have`` then no longer matches and
        #: the next reply on each stream is absolute.
        self._streams: Dict[Tuple[str, str, str], VectorStream] = {}

    def _pull(self, message: Dict[str, Any]) -> Any:
        kind = message.get("kind", "")
        handler = self.handlers.get(kind)
        if handler is None:
            raise CommunicationError(f"node '{self.node_id}' serves no '{kind}' requests")
        requester = str(message.get("requester", ""))
        iteration = int(message.get("iteration", 0))
        result = handler(RequestContext(requester, iteration, message.get("payload")))
        if "fmt" not in message or not is_stream_vector(result):
            return result
        fmt = str(message["fmt"])  # unknown or unavailable: a typed error response
        stream = VectorStream.among(self._streams, (requester, kind, fmt), fmt)
        blob = stream.encode(result, iteration, int(message.get("have", -1)))
        return {VECTOR_BLOB_KEY: blob}

    def __call__(self, message: Any) -> Any:
        if not isinstance(message, dict) or "op" not in message:
            raise CommunicationError(f"malformed RPC request: {message!r}")
        op = message["op"]
        if op == "ping":
            return "pong"
        if op == "shutdown":
            return "bye"
        if op == "pull":
            return self._pull(message)
        if op == "restore":
            from repro.core.node import Node  # loaded by host_main already

            self.node = Node.from_snapshot(message.get("state", b""), Transport())
            self.handlers = self.node.handlers()
            return None
        if self.node is None:
            raise CommunicationError(f"host '{self.node_id}' holds no node to serve op '{op}'")
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
        raise CommunicationError(f"unknown RPC op '{op}'")


def host_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.network.rpc``: serve one node."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.network.rpc")
    parser.add_argument("--node", required=True, help="id of the node this host serves")
    parser.add_argument(
        "--probe", action="store_true", help="serve the conformance probe handlers"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = None
    if args.probe:
        handlers = build_probe_handlers(args.node)
    else:
        # Load the node classes before reporting ready, while every other
        # host of the fleet is importing too — not inside ``restore``, which
        # the coordinator sends to one host after another.
        import repro.core.node  # noqa: F401
    server = RpcServer(_HostDispatcher(args.node, handlers))
    print(f"{READY_PREFIX} {args.node} {server.port}", flush=True)
    server.serve_forever()
    return 0


# ---------------------------------------------------------------------- #
# Coordinator-side backend
# ---------------------------------------------------------------------- #
class _NodeHost:
    """Bookkeeping for one spawned node subprocess."""

    __slots__ = (
        "node_id",
        "stderr_path",
        "snapshot",
        "process",
        "port",
        "client",
        "pending",
    )

    def __init__(
        self, node_id: str, stderr_path: Path, snapshot: Optional[bytes] = None
    ) -> None:
        self.node_id = node_id
        self.stderr_path = stderr_path
        #: The node this host serves, as its newest ``snapshot_state()``: the
        #: coordinator's own copy at first spawn, the host's at every scripted
        #: crash and supervisor checkpoint since.  Every incarnation is
        #: handed it by ``restore``.  ``None`` only for a conformance probe,
        #: which is spawned with ``--probe`` and handed nothing.
        self.snapshot = snapshot
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.client: Optional[RpcClient] = None
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

    The coordinator keeps the nodes it built — their registration populates
    the handler table used for planning, and :meth:`start` hands each host
    its node's snapshot — while the authoritative handler-visible state lives
    in the hosts from then on.  Scenario events map onto process reality:

    ========== ==========================================================
    event      process-backend effect
    ========== ==========================================================
    crash      state snapshot requested, then SIGKILL of the host; pulls
               are refused at plan time exactly like the in-process path
    recover    host respawned and handed the crash-time snapshot, buffered
               control/sync messages replayed
    partition  the coordinator never dials across the cut (connection
               refusal without consuming drop randomness)
    straggler  latency factor applied to the pre-sampled reply latency;
               with ``wall_time_scale`` the reply is genuinely delayed
    ========== ==========================================================
    """

    name = "socket"

    def __init__(
        self,
        wire_format: FormatLike = "float64",
        probe_nodes: Sequence[str] = (),
        spawn_timeout: float = DEFAULT_SPAWN_DEADLINE,
        call_timeout: float = DEFAULT_READ_DEADLINE,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        available, reason = process_backend_available()
        if not available:
            raise CommunicationError(f"process backend unavailable: {reason}")
        super().__init__()  # the shared handler table: planning-side mirror
        #: Format every pull asks its reply vector in.
        self._wire_format = parse_wire_format(wire_format)
        #: Every node that gets a host, by id; a conformance probe has no
        #: node object (its host builds the probe handlers itself).
        self._nodes: Dict[str, Optional[Any]] = dict.fromkeys(probe_nodes)
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
        #: Receiver ends of the hosts' streams, keyed ``(node_id, requester,
        #: kind)``; they outlive a host, whose respawn then sees a ``have``
        #: it cannot match.
        self._streams: Dict[Tuple[str, str, str], VectorStream] = {}

    def register_node(self, node_id: str, node: object) -> None:
        self._nodes.setdefault(node_id, node)  # a probe id keeps its None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._workdir = Path(tempfile.mkdtemp(prefix="repro-process-backend-"))
            try:
                for node_id, node in sorted(self._nodes.items()):
                    self._hosts[node_id] = _NodeHost(
                        node_id,
                        self._workdir / f"{node_id}.stderr",
                        None if node is None else node.snapshot_state(),
                    )
                # Spawn everything first, await readiness second: the hosts'
                # imports overlap, and so does each restore with the imports
                # of the hosts behind it.
                for host in self._hosts.values():
                    self._spawn(host)
                for host in self._hosts.values():
                    self._await_ready(host)
                    self._restore(host)
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
        argv = [sys.executable, "-m", "repro.network.rpc", "--node", host.node_id]
        if host.snapshot is None:
            argv.append("--probe")
        # Append: a respawned host must not truncate the previous
        # incarnation's crash diagnostics (stderr_tail reports them).
        stderr_handle = open(host.stderr_path, "ab")
        try:
            host.process = subprocess.Popen(
                argv,
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
            connect_timeout=self.connect_timeout,
        )

    def _restore(self, host: _NodeHost) -> None:
        """Hand a ready host its node: first spawn, recover and revive alike."""
        if host.snapshot is not None:
            host.client.call(
                {"op": "restore", "node": host.node_id, "state": host.snapshot}
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
        stream = None
        if not self._wire_format.is_plain_float64:
            key = (node_id, context.requester, kind)
            stream = VectorStream.among(self._streams, key, self._wire_format)
            # Name the reply's format and the reconstruction we hold; the
            # host delta-encodes only against exactly that one, so a crash on
            # either side simply costs one absolute-encoded reply.
            message["fmt"] = self._wire_format.spec
            message["have"] = stream.iteration
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
        if stream is not None and isinstance(result, dict) and VECTOR_BLOB_KEY in result:
            return stream.decode(result[VECTOR_BLOB_KEY], context.iteration)
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
            self._restore(host)
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
        return f"SocketBackend(nodes={len(self._nodes)}, started={self._started})"


def main() -> int:  # pragma: no cover - exercised via subprocess
    return host_main()


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
