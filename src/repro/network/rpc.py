"""Socket RPC layer and forked node hosts for the ``process`` backend.

The paper runs every Garfield node as its own OS process speaking gRPC; this
module is our equivalent on top of :mod:`repro.network.wire`'s length-prefixed
TCP framing.  Four pieces compose:

* :class:`RpcClient` / :class:`RpcServer` — a minimal request/response
  protocol: each request is one framed message (a dict with an ``"op"``
  field), each response is ``{"ok": True, "result": ...}`` or
  ``{"ok": False, "error": <exception name>, "message": ...}``.  Connection
  failures — refused dials, resets, EOF mid-frame — are translated into
  :class:`~repro.exceptions.NodeCrashedError`, the exact type the in-process
  path raises for crashed peers, so the transport's quorum logic is
  backend-agnostic.
* The **zygote** (``python -m repro.network.rpc``, :func:`zygote_main`) — one
  template process per deployment that imports NumPy and the node classes
  once and then forks (``os.fork``) a host for every request line the
  coordinator writes to its stdin.  It is single-threaded, holds no socket
  and no node, ignores ``SIGCHLD`` (the kernel reaps dead hosts, no zombies)
  and, when stdin reaches EOF — the coordinator is gone, however it died —
  kills its process group: itself and every host it forked.
* The **node host** — a forked copy of the zygote that starts empty, binds
  its :class:`RpcServer`, reports ``GARFIELD-RPC <node> <port> <pid>`` in one
  ``os.write`` on the stdout all hosts share (port 0 right after the fork,
  the real one when it listens), is handed its node by the coordinator's
  ``restore`` request (the bytes of :meth:`Node.snapshot_state
  <repro.core.node.Node.snapshot_state>`, rebuilt by
  :meth:`~repro.core.node.Node.from_snapshot`) and serves that node's
  handlers over TCP.  It builds nothing itself: no config, no dataset, no
  other node.  Server-side state mutations (model updates, published
  aggregates) are mirrored in by ``sync`` requests from the coordinator, so
  peer pulls observe exactly the state the in-process path would.
* :class:`SocketBackend` — the coordinator-side
  :class:`~repro.network.transport.TransportBackend` that has one host forked
  per node, routes ``invoke`` calls over the wire and maps scenario control
  events onto process reality: ``crash`` snapshots the node's state and
  SIGKILLs the host, ``recover`` forks a new one and restores the snapshot (a
  machine rejoining with its disk intact), ``partition`` means the
  coordinator never dials (connection refusal), and stragglers delay replies
  via the transport's wall-time scale.  First spawn, scripted ``recover`` and
  supervisor ``revive`` are one path: fork, await the ready line, restore.
  A host is the zygote's child, not the coordinator's, so it is held by a
  pidfd: polled, killed and waited on without ever naming a pid.

What crosses the boundary is decided in three places and nowhere else: node
state by ``restore`` (a pickle of the coordinator's own bytes), reply vectors
in a non-default wire format by a
:class:`~repro.network.serialization.VectorStream` (the request names the
format and the sequence number of the reply it holds, the reply names its
own), everything else by the value codec, always in float64.

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
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
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
    StreamTable,
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

#: Response key beside :data:`VECTOR_BLOB_KEY`: the blob's sequence number on
#: its stream, which the requester sends back as ``"have"`` on its next pull.
VECTOR_SEQUENCE_KEY = "__vector_sequence__"

#: First word of the two lines a forked host reports on the zygote's stdout,
#: ``GARFIELD-RPC <node> <port> <pid>``: port 0 right after the fork, the
#: listener's once it is bound.
READY_PREFIX = "GARFIELD-RPC"

#: How the zygote is started (the failure-path tests substitute a broken one).
ZYGOTE_ARGV = (sys.executable, "-m", "repro.network.rpc")

#: Name prefix of a deployment's work directory under ``$TMPDIR``: the
#: zygote's and every host's stderr file.
WORKDIR_PREFIX = "repro-process-backend-"


# ---------------------------------------------------------------------- #
# Environment probe
# ---------------------------------------------------------------------- #
_AVAILABILITY: Optional[Tuple[bool, str]] = None


def _unavailable_reason() -> str:
    try:
        os.fork, signal.pidfd_send_signal  # noqa: B018 - what hosts are made and held by
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError) as exc:
        return f"no os.fork / pidfd support (Linux >= 5.3 only): {exc}"
    try:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
    except OSError as exc:
        return f"cannot bind localhost sockets: {exc}"
    try:
        code = subprocess.run(
            [sys.executable, "-c", "pass"], capture_output=True, timeout=60
        ).returncode
    except (OSError, subprocess.SubprocessError) as exc:
        return f"cannot spawn subprocesses: {exc}"
    return f"python subprocess exited with {code}" if code else ""


def process_backend_available() -> Tuple[bool, str]:
    """Whether this environment permits the process backend at all.

    Returns ``(True, "")`` when localhost sockets can be bound, subprocesses
    spawned and a forked non-child process held by pidfd, else ``(False,
    reason)``; platforms and sandboxes that forbid any of it make the backend
    (and its tests) skip gracefully with the reason — there is no second way
    to make a host.  The probe runs once per interpreter.
    """
    global _AVAILABILITY
    if _AVAILABILITY is None:
        reason = _unavailable_reason()
        _AVAILABILITY = (not reason, reason)
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


class RpcClient:
    """Pooled connections to one node host.

    Each :meth:`call` checks a socket out of the pool (dialling a new one
    when the pool is dry, which is what lets concurrent fan-out threads talk
    to the same host), performs one framed request/response round trip and
    returns the socket for reuse.  A socket holds no buffer between calls:
    each reply frame is received into storage of its own, which the decoded
    result aliases.

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
        self._free: List[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False

    def _checkout(self) -> socket.socket:
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
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed:
                self._free.append(sock)
                return
        sock.close()

    def call(self, message: Dict[str, Any]) -> Any:
        """One request/response round trip; returns the remote result."""
        # Encode before anything touches the socket: an unencodable payload
        # is a caller bug (plain CommunicationError), not a dead peer.
        body = encode_value(message)
        sock = self._checkout()
        try:
            send_frame(sock, body)
            response = recv_message(sock)
        except socket.timeout as exc:
            # Must precede the OSError clause below (socket.timeout *is* an
            # OSError): the dial succeeded and the request went out, but no
            # full reply arrived within the read deadline — the peer is slow
            # or wedged, not provably dead.  The connection is mid-frame and
            # unusable; drop it.
            sock.close()
            raise DeadlineError(
                f"node host at {self.address} produced no reply within "
                f"{self.timeout:.1f}s (read deadline)"
            ) from exc
        except (ConnectionClosed, CommunicationError, OSError) as exc:
            sock.close()
            raise NodeCrashedError(
                f"node host at {self.address} died mid-call: {exc}"
            ) from exc
        self._checkin(sock)
        if not isinstance(response, dict) or "ok" not in response:
            raise CommunicationError(f"malformed RPC response: {response!r}")
        if response["ok"]:
            return response.get("result")
        _raise_remote(response)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            free, self._free = self._free, []
        for sock in free:
            sock.close()


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
        with conn:
            while not self._stopping.is_set():
                try:
                    message = recv_message(conn)
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
        #: Sender ends.  They die with the process; the next reply on each
        #: stream is then absolute.
        self._streams = StreamTable()

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
        stream = self._streams.stream(self.node_id, kind, requester, fmt)
        blob, sequence = stream.encode(result, int(message.get("have", 0)))
        return {VECTOR_BLOB_KEY: blob, VECTOR_SEQUENCE_KEY: sequence}

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
            from repro.core.node import Node  # loaded by the zygote already

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


def _host_main(node_id: str, stderr_path: str, probe: bool) -> None:
    """Body of a freshly forked host: bind, report ready, serve; never returns."""
    code = 1
    try:
        # First, so the coordinator learns the pid before anything can fail.
        os.write(1, f"{READY_PREFIX} {node_id} 0 {os.getpid()}\n".encode())
        null = os.open(os.devnull, os.O_RDWR)
        # Append: a respawned host must not truncate the previous
        # incarnation's crash diagnostics (error messages quote the tail).
        log = os.open(stderr_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        os.dup2(null, 0)  # the zygote's request pipe is not ours to read
        os.dup2(log, 2)
        os.close(log)
        handlers = build_probe_handlers(node_id) if probe else None
        server = RpcServer(_HostDispatcher(node_id, handlers))
        # ONE write: every host shares this pipe, and a line split over two
        # writes interleaves with a sibling's.
        os.write(1, f"{READY_PREFIX} {node_id} {server.port} {os.getpid()}\n".encode())
        os.dup2(null, 1)  # from here on the zygote is the pipe's only writer
        os.close(null)
        server.serve_forever()
        code = 0
    except BaseException:  # noqa: BLE001 - into <node>.stderr, then die
        traceback.print_exc()
    finally:
        os._exit(code)  # never unwind into the zygote's loop or its atexit


def zygote_main() -> int:
    """Entry point of ``python -m repro.network.rpc``: fork one host per request.

    Requests are lines ``<node>\\t<stderr path>\\t<probe 0|1>`` on stdin.  EOF
    means the coordinator is gone, however it died (its ``close()`` kills the
    zygote before it can read EOF): the zygote then removes the work
    directory its own stderr file lives in and kills its process group —
    itself and every host it forked (``SocketBackend`` starts it as the
    leader of a group of its own; started any other way it just ends).
    Until the fork it must hold no Python thread, no socket and no node: a
    forked thread's locks stay locked forever, and anything open here is
    open in every host.
    """
    import numpy.random  # noqa: F401 - unpickled with every worker's loader
    import repro.core.node  # noqa: F401 - and with it every node class

    # Dead hosts are reaped by the kernel: no zombie, and nothing to wait for.
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    for request in iter(sys.stdin.buffer.readline, b""):
        node_id, stderr_path, probe = request.decode().rstrip("\n").split("\t")
        if os.fork() == 0:
            _host_main(node_id, stderr_path, probe == "1")
    if os.getpgrp() == os.getpid():
        workdir = Path(os.readlink("/proc/self/fd/2")).parent
        if workdir.name.startswith(WORKDIR_PREFIX):  # never a directory not ours
            shutil.rmtree(workdir, ignore_errors=True)
        os.killpg(os.getpid(), signal.SIGKILL)
    return 0


# ---------------------------------------------------------------------- #
# Coordinator-side backend
# ---------------------------------------------------------------------- #
class _NodeHost:
    """Bookkeeping for one forked node host."""

    __slots__ = (
        "node_id",
        "stderr_path",
        "snapshot",
        "pid",
        "pidfd",
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
        #: which is forked with the probe handlers and handed nothing.
        self.snapshot = snapshot
        #: Set by the host's "forked" line; the pidfd is how a process that
        #: is the zygote's child, not ours, is polled, killed and waited on
        #: without ever naming a pid somebody else may have been given since.
        self.pid: Optional[int] = None
        self.pidfd: Optional[int] = None
        self.port: Optional[int] = None
        self.client: Optional[RpcClient] = None
        #: Control/sync messages issued while the host was down, replayed
        #: in order right after a recover's restore.
        self.pending: List[Dict[str, Any]] = []

    @property
    def running(self) -> bool:
        # A pidfd reads as ready once its process has exited.
        return self.pidfd is not None and not select.select([self.pidfd], [], [], 0)[0]

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

        Kills the process if it still runs (SIGKILL — no goodbye), waits
        until it is gone *and* reaped (the zygote ignores ``SIGCHLD``, so the
        kernel reaps at exit; a signal through the pidfd stops being
        deliverable exactly then), closes the pidfd and drops the client
        pool, so repeated crashes, failed recovers and unscripted deaths
        cannot leak processes or file descriptors.
        """
        if self.pidfd is not None:
            budget = DeadlineBudget(0.1)  # only an orphan of a dead zygote waits it out
            try:
                signal.pidfd_send_signal(self.pidfd, signal.SIGKILL)
                select.select([self.pidfd], [], [])
                while not budget.expired():
                    signal.pidfd_send_signal(self.pidfd, 0)
            except ProcessLookupError:
                pass
            os.close(self.pidfd)
        self.pid = self.pidfd = self.port = None
        if self.client is not None:
            self.client.close()
            self.client = None


def _tail(path: Path, limit: int = 2000) -> str:
    """The end of a host's (or the zygote's) stderr file, for error messages."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return text[-limit:]


class SocketBackend(TransportBackend):
    """Deliver handler invocations to per-node host processes over TCP.

    The coordinator keeps the nodes it built — their registration populates
    the handler table used for planning, and :meth:`start` hands each host
    its node's snapshot — while the authoritative handler-visible state lives
    in the hosts from then on.  Scenario events map onto process reality:

    ========== ==========================================================
    event      process-backend effect
    ========== ==========================================================
    crash      state snapshot requested, then SIGKILL of the host; pulls
               are refused at plan time exactly like the in-process path
    recover    new host forked and handed the crash-time snapshot, buffered
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
        #: each retry sleep; the controller wires it to the transport's ledger.
        self.on_retry: Optional[Callable[[str, int, BaseException], None]] = None
        self._hosts: Dict[str, _NodeHost] = {}
        self._workdir: Optional[Path] = None
        #: The template process hosts are forked from, and what it (or a
        #: host) has printed that is not a whole line yet.
        self._zygote: Optional[Any] = None
        self._unrouted = b""
        self._started = False
        self._lock = threading.RLock()
        #: Receiver ends of the hosts' streams.  A respawned host counts its
        #: replies from 0 again, so ``_spawn`` drops the node's ends too.
        self._streams = StreamTable()

    def register_node(self, node_id: str, node: object) -> None:
        self._nodes.setdefault(node_id, node)  # a probe id keeps its None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            try:
                self.prefork()
                for node_id, node in sorted(self._nodes.items()):
                    self._hosts[node_id] = _NodeHost(
                        node_id,
                        self._workdir / f"{node_id}.stderr",
                        None if node is None else node.snapshot_state(),
                    )
                # Fork everything first, await readiness second, then hand
                # every host its node at once: the restores are independent,
                # and one after another they are tens of MB sent in a row.
                hosts = list(self._hosts.values())
                for host in hosts:
                    self._spawn(host)
                for host in hosts:
                    self._await_ready(host)
                with ThreadPoolExecutor(len(hosts) or 1) as pool:
                    list(pool.map(self._restore, hosts))
            except BaseException:
                # A host failed to come up and the deployment will never be
                # handed to the caller: reap every sibling that did spawn so
                # no orphan process (or tempdir) outlives the failure.
                self.close()
                raise
            self._started = True

    def prefork(self) -> None:
        """Make sure a zygote runs; public so it can import while nodes are built.

        :class:`~repro.core.controller.Controller` calls it before building
        the dataset; every ``_spawn`` calls it too, which is what replaces a
        zygote that died under a live deployment (its hosts keep serving,
        only forking needs a new one).
        """
        with self._lock:
            if self._zygote is not None and self._zygote.poll() is None:
                return
            self._stop_zygote()
            if self._workdir is None:
                self._workdir = Path(tempfile.mkdtemp(prefix=WORKDIR_PREFIX))
            env = dict(os.environ)
            src_dir = str(Path(__file__).resolve().parents[2])
            existing = env.get("PYTHONPATH", "")
            env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
            with open(self._workdir / "zygote.stderr", "ab") as log:
                # Leader of its own process group: one killpg — its own on
                # stdin EOF, ours in _stop_zygote — takes the hosts along.
                self._zygote = subprocess.Popen(
                    ZYGOTE_ARGV,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=log,
                    env=env,
                    bufsize=0,
                    start_new_session=True,
                )
            os.set_blocking(self._zygote.stdout.fileno(), False)
            self._unrouted = b""

    def _stop_zygote(self) -> None:
        zygote, self._zygote = self._zygote, None
        if zygote is None:
            return
        if zygote.poll() is None:  # unreaped, so the group id is still its own
            os.killpg(zygote.pid, signal.SIGKILL)
        zygote.wait()
        zygote.stdin.close()
        zygote.stdout.close()

    def _spawn(self, host: _NodeHost) -> None:
        """Ask the zygote for a fresh host; the old incarnation, if any, goes first."""
        host.teardown()
        self._streams.forget(host.node_id)
        self.prefork()
        request = f"{host.node_id}\t{host.stderr_path}\t{int(host.snapshot is None)}\n"
        try:
            self._zygote.stdin.write(request.encode())
        except OSError:
            pass  # the zygote died this instant: _await_ready reports it

    def _route(self, line: bytes) -> bool:
        """Apply one line of the shared pipe to the host it names, if it fits one."""
        fields = line.decode("utf-8", errors="replace").split()
        host = self._hosts.get(fields[1]) if len(fields) == 4 else None
        if host is None or fields[0] != READY_PREFIX or not (fields[2] + fields[3]).isdigit():
            return False
        port, pid = int(fields[2]), int(fields[3])
        if port == 0 and host.pid is None:  # forked
            host.pid = pid
            try:
                host.pidfd = os.pidfd_open(pid)
            except ProcessLookupError:
                pass  # dead on arrival: _await_ready reports it with its stderr
        elif port and pid == host.pid and host.port is None:  # ready
            host.port = port
            host.client = RpcClient(
                ("127.0.0.1", port), timeout=self.call_timeout, connect_timeout=self.connect_timeout
            )
        return True  # else: well-formed but late, from an incarnation already torn down

    def _await_ready(self, host: _NodeHost) -> None:
        """Read the one pipe every host reports on until ``host`` is ready.

        Lines are routed by node id, so a sibling's report read on the way is
        already applied when its own turn comes; a line that fits no host is
        charged to the one awaited.  Every failure reaps that host before it
        surfaces (a malformed ready line means a *running* process nobody
        would otherwise stop) — and the zygote with its whole group when the
        host never even reported its pid.
        """
        zygote = self._zygote  # the one _spawn wrote to: if dead, reported here
        fd = zygote.stdout.fileno()
        budget = DeadlineBudget(self.spawn_timeout)
        malformed = reason = None
        while host.port is None and reason is None:
            if zygote.poll() is not None:
                reason = (
                    f"zygote exited with {zygote.returncode} before node host "
                    f"'{host.node_id}' became ready: {_tail(self._workdir / 'zygote.stderr')}"
                )
            elif host.pid is not None and malformed is not None:
                reason = f"node host '{host.node_id}' printed a malformed ready line: {malformed!r}"
            elif host.pid is not None and not host.running:
                reason = f"node host '{host.node_id}' exited before becoming ready"
            elif budget.expired():
                reason = f"node host '{host.node_id}' not ready within {budget.total:.0f}s"
            else:
                # Each select draws a short slice of whatever budget remains.
                if select.select([fd], [], [], min(0.05, max(budget.remaining(), 1e-3)))[0]:
                    self._unrouted += os.read(fd, 4096)
                *lines, self._unrouted = self._unrouted.split(b"\n")
                for line in lines:
                    if not self._route(line):
                        malformed = line
        if reason is not None:
            if host.pid is None:
                self._stop_zygote()
            host.teardown()
            raise CommunicationError(f"{reason}: {_tail(host.stderr_path)}")

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
            self._stop_zygote()
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
        return host.pid

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
            stream = self._streams.stream(node_id, kind, context.requester, self._wire_format)
            # Name the reply's format and the reconstruction we hold; the
            # host delta-encodes only against exactly that one, so a crash on
            # either side simply costs one absolute-encoded reply.
            message["fmt"] = self._wire_format.spec
            message["have"] = stream.sequence
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
            return stream.decode(result[VECTOR_BLOB_KEY], result[VECTOR_SEQUENCE_KEY])
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
            if host is None or host.running:
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


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(zygote_main())
