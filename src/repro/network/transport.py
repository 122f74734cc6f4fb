"""Pull-based point-to-point transport.

This is the stand-in for Garfield's gRPC layer.  Every node registers a
handler per RPC kind (``"gradient"``, ``"model"``, ...).  A requester pulls
data from many peers in parallel (:meth:`Transport.pull_many`), receiving the
fastest ``quorum`` replies — the exact semantics required by
``get_gradients(t, q)`` / ``get_models(q)``.  Each communication fact is
written once into the transport's :class:`~repro.network.ledger.Ledger`.

Where a handler actually *runs* is the backend's business: the
:class:`TransportBackend` interface separates the transport's protocol logic
(planning, failure injection, quorum draining, accounting) from handler
delivery.  :class:`InProcessBackend` invokes the registered callable directly
— the serial and threaded executors both use it — while
:class:`repro.network.rpc.SocketBackend` forwards the invocation over a
length-prefixed TCP connection to the subprocess hosting the destination node
(``executor="process"``).  Everything above the backend is identical, which
is what the cross-backend conformance suite locks down.

A quorum pull is one loop, whatever the deployment asked for
(:meth:`Transport.pull_many`): a *wave policy* — the default
:class:`~repro.network.resilience.WavePolicy`, or the
:class:`~repro.network.resilience.HedgePolicy` in :attr:`Transport.hedge` —
says which peers are asked in the first wave and which pulls are re-issued
once its outcomes are known; the transport plans, dispatches and classifies
each wave (:meth:`Transport._wave`) and keeps the fastest ``quorum`` arrivals.
The transport knows waves, not hedging.

Two layers of "time" coexist here:

* **Simulated time** — each reply's latency combines a sampled link latency,
  the transfer of its payload at the deployment's one link speed (the
  ``bandwidth`` of :attr:`Transport.price`), and per-node straggler factors.
  The paper parallelizes RPC calls, so the fastest ``quorum`` arrivals win,
  whatever their number; the pull is charged by the one network rule
  (:attr:`Transport.price`): the selected replies cross the requester's link
  first in, first out, after the payloads its requests shipped.  A pull
  between two nodes on one machine (:attr:`Transport.machines`) is drawn,
  ordered and selected like any other, but crosses no link and is charged
  nothing.
* **Wall-clock time** — handler execution (gradient computation on a worker)
  is real work.  Each planned wave is handed to the backend
  (:meth:`TransportBackend.deliver`).  In process, its handler invocations
  go through the deployment's :class:`~repro.core.executor.Executor`, which
  yields each reply as it completes, so with a
  :class:`~repro.core.executor.ThreadedExecutor` independent peers are
  serviced concurrently and the round's wall-clock cost tracks the slowest
  single peer rather than the sum over peers; the socket backend writes the
  whole wave out before it reads any reply, to the same effect.

Determinism: every random quantity (message drops, latency jitter) is sampled
while a wave is *planned* — serially, on the calling thread, in wave order,
before any of its work is dispatched — and nowhere else.  Classification runs
in wave order too, whatever order the engine finished in, so the counters,
the liveness detector and a policy's latency history see one sequence.  The
executor only runs the deterministic remainder: serial and threaded engines
yield bit-identical replies for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CommunicationError, NodeCrashedError, TimeoutError
from repro.network.cost import NetworkParameters, NetworkPrice
from repro.network.failures import FailureInjector
from repro.network.ledger import Ledger, Quorum, TransportStats
from repro.network.message import Reply, RequestContext
from repro.network.resilience import PullOutcome, WavePolicy
from repro.network.serialization import (
    FormatLike,
    StreamTable,
    is_stream_vector,
    message_nbytes,
    parse_wire_format,
    serialized_nbytes,
)
from repro.utils import make_rng

Handler = Callable[[RequestContext], Any]


class TransportBackend:
    """Where handler invocations run: in this process or across a socket.

    The transport owns *protocol* concerns — per-destination planning, the
    failure injector, quorum selection, stats — and delegates *delivery* to a
    backend.  Implementations must keep :meth:`invoke` deterministic for a
    given request (all randomness is pre-sampled by the transport before
    dispatch) and must translate a peer dying mid-invocation into
    :class:`~repro.exceptions.NodeCrashedError`, the same type the in-process
    path raises for crashed peers.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        # Every backend keeps the registration table: the in-process backend
        # invokes these callables directly, the socket backend uses the same
        # table as its planning-side mirror of what each host serves.
        self._handlers: Dict[Tuple[str, str], Handler] = {}

    def register_node(self, node_id: str, node: object) -> None:
        """Learn that ``node`` exists (the socket backend hands it to a host)."""

    def register_handler(self, node_id: str, kind: str, handler: Handler) -> None:
        self._handlers[(node_id, kind)] = handler

    def has_handler(self, node_id: str, kind: str) -> bool:
        return (node_id, kind) in self._handlers

    def invoke(self, node_id: str, kind: str, context: RequestContext) -> Any:
        """Run the ``kind`` handler of ``node_id`` and return its response."""
        raise NotImplementedError

    def deliver(
        self, transport: Transport, planned: Sequence[_PlannedPull], kind: str, context: RequestContext
    ) -> Iterator[Tuple[int, Optional[Reply]]]:
        """Deliver one planned wave; yield ``(index, reply)`` as each reply is released.

        A peer that dies mid-reply yields ``None`` or nothing (a lost pull).
        Here every pull is one task on the transport's executor — invoke,
        assemble the reply, wait out its wall delay — so a threaded engine
        overlaps the peers and the serial one runs them back to back.
        """

        def serve(plan: _PlannedPull) -> Optional[Reply]:
            try:
                response = self.invoke(plan.destination, kind, context)
            except NodeCrashedError:
                return None
            reply = transport.make_reply(plan, kind, context.iteration, response)
            delay = transport.wall_delay(reply.latency)
            if delay:
                time.sleep(delay)
            return reply

        return transport.executor.map_unordered([(lambda plan=plan: serve(plan)) for plan in planned])

    def start(self) -> None:
        """Bring the backend up (spawn subprocesses...); idempotent."""

    def close(self) -> None:
        """Release backend resources (terminate subprocesses...); idempotent."""

    def sync_state(self, node_id: str, what: str, vector: Any) -> None:
        """Mirror a server-side state mutation to the node's remote replica
        (nothing to do where handlers read the live object)."""

    def apply_control(self, node_id: str, op: str, **params: Any) -> None:
        """Forward a scenario control event (crash, recover, set_attack...)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class InProcessBackend(TransportBackend):
    """Default delivery: handlers are closures invoked on the calling thread
    (or an executor pool thread during a fan-out).

    With a non-default ``wire_format`` every reply vector crosses the same
    :class:`~repro.network.serialization.VectorStream` sender end a node host
    would send it through, held in the same
    :class:`~repro.network.serialization.StreamTable` (so a gradient pulled by
    every replica is quantized once), and the requester is handed the
    sender's own reconstruction — bit for bit what a receiver end decodes
    from the blob, and read-only because other requesters may hold it too —
    so serial/threaded runs observe the reduced-precision payloads of a
    process deployment and goldens can lock each format without sockets.
    The plain-float64 default passes results through untouched, before the
    table, which is what keeps the seed traces byte-identical.
    """

    name = "inprocess"

    def __init__(self, wire_format: FormatLike = "float64") -> None:
        super().__init__()
        self.wire_format = parse_wire_format(wire_format)
        #: Sender ends: what each node's host keeps for its own node.
        self._streams = StreamTable()

    def invoke(self, node_id: str, kind: str, context: RequestContext) -> Any:
        handler = self._handlers.get((node_id, kind))
        if handler is None:
            raise CommunicationError(f"node '{node_id}' serves no '{kind}' requests")
        result = handler(context)
        if self.wire_format.is_plain_float64 or not is_stream_vector(result):
            return result
        stream = self._streams.stream(node_id, kind, context.requester, self.wire_format)
        stream.encode(result)  # same process: the requester holds what this end last sent
        return stream.reference

    def apply_control(self, node_id: str, op: str, **params: Any) -> None:
        """Forget a crashed node's sender ends.

        Over sockets they die with its SIGKILLed host, so its next reply on
        every stream is absolute; the in-process node outlives its logical
        crash and has to lose them too, or the two backends quantize
        different residuals from that round on.
        """
        if op == "crash":
            self._streams.forget(node_id)


@dataclass
class LinkModel:
    """Per-link latency parameters: base latency and jitter.

    Defaults approximate the paper's testbed: a sub-millisecond base latency
    — the cost model's link (:class:`~repro.network.cost.NetworkParameters`)
    — with jitter.  How fast a link moves bytes is the deployment's one link
    speed, :attr:`Transport.price`'s ``bandwidth``.
    """

    base_latency: float = NetworkParameters.base_latency
    jitter: float = 1e-4

    def sample_jitter(self, rng: np.random.Generator) -> float:
        """Sample the stochastic component of one reply's latency."""
        return rng.exponential(self.jitter) if self.jitter > 0 else 0.0


@dataclass
class _PlannedPull:
    """One pre-sampled pull, ready to be dispatched to an executor."""

    destination: str
    jitter: float
    factor: float


#: Planning result for a crashed peer (``None`` is a message lost in transit).
_REFUSED = object()
#: The wave policy of a transport without hedging.
_PULL_EVERYONE = WavePolicy()


class RoundBuffer:
    """Preallocated ``(capacity, d)`` reply matrix, refilled every round.

    This kills the list-of-arrays plumbing between :meth:`Transport.pull_many`
    and the GARs: instead of materializing one array per reply and restacking
    them (an extra O(q d) copy per round plus allocator churn),
    :meth:`Transport.pull_many` writes each selected reply directly into row
    *i* of this buffer and every GAR consumes the resulting matrix view with
    :meth:`~repro.aggregators.base.GAR.aggregate_matrix` — each gradient
    element is touched once on its way in.

    Ownership rules (see ``docs/performance.md``):

    * Only the transport (and the owning server, for ``append_row``) may
      write, and only between :meth:`reset` and the first :meth:`matrix` call
      of a round.
    * :meth:`matrix` returns a **read-only** view valid until the next
      :meth:`reset` — i.e. until the owner starts its next pull of the same
      kind.  Consumers that need the data beyond the round must copy.
    """

    def __init__(self, capacity: int, dimension: int) -> None:
        if capacity <= 0 or dimension <= 0:
            raise CommunicationError("RoundBuffer needs positive capacity and dimension")
        self.capacity = capacity
        self.dimension = dimension
        self._storage = np.empty((capacity, dimension), dtype=np.float64)
        self._rows = 0
        self._view: Optional[np.ndarray] = None

    @property
    def rows(self) -> int:
        return self._rows

    def reset(self) -> None:
        """Recycle the buffer for a new round, retiring the previous view."""
        self._view = None
        self._rows = 0

    def write_row(self, index: int, vector: Any) -> None:
        """Copy one reply payload into row ``index`` (the round's only copy)."""
        if self._view is not None:
            raise CommunicationError("RoundBuffer is sealed; reset() before refilling")
        if not 0 <= index < self.capacity:
            raise CommunicationError(
                f"row {index} out of range for a {self.capacity}-row round buffer"
            )
        row = np.asarray(vector, dtype=np.float64)
        if row.size != self.dimension:
            raise CommunicationError(
                f"reply of dimension {row.size} does not fit a round buffer of "
                f"dimension {self.dimension}"
            )
        self._storage[index, :] = row.reshape(-1)
        self._rows = max(self._rows, index + 1)

    def append_row(self, vector: Any) -> None:
        """Write ``vector`` into the next free row (e.g. the server's own state)."""
        self.write_row(self._rows, vector)

    def matrix(self) -> np.ndarray:
        """Seal the round and return the filled rows as a read-only view."""
        if self._view is None:
            view = self._storage[: self._rows]
            view.setflags(write=False)
            self._view = view
        return self._view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoundBuffer(capacity={self.capacity}, dimension={self.dimension}, "
            f"rows={self._rows}, sealed={self._view is not None})"
        )


class Transport:
    """In-process pull-based RPC fabric shared by all nodes of a deployment.

    Parameters
    ----------
    executor:
        The :class:`~repro.core.executor.Executor` used to fan out
        :meth:`pull_many` handler invocations.  Defaults to the deterministic
        serial engine; pass a ``ThreadedExecutor`` (or call
        :meth:`use_executor`) to service peers concurrently.
    wall_time_scale:
        When positive, every reply additionally *sleeps* ``latency *
        wall_time_scale`` real seconds, making wall-clock behaviour mirror the
        simulated link.  This is how the async benchmarks demonstrate the
        fastest-q pipeline: with the serial engine the sleeps accumulate, with
        the threaded engine (and over sockets) they overlap.  The default
        ``0.0`` keeps the simulation purely analytic (no sleeping), which is
        what tests use.
    """

    def __init__(
        self,
        link: Optional[LinkModel] = None,
        failures: Optional[FailureInjector] = None,
        seed: int = 0,
        executor: Optional["Executor"] = None,
        wall_time_scale: float = 0.0,
        backend: Optional[TransportBackend] = None,
        wire_format: FormatLike = "float64",
    ) -> None:
        # Imported lazily: repro.core.__init__ pulls in modules that import
        # this one, so a module-level import would be circular.
        from repro.core.executor import Executor, SerialExecutor

        if executor is not None and not isinstance(executor, Executor):
            raise CommunicationError("executor must be a repro.core.executor.Executor")
        if backend is not None and not isinstance(backend, TransportBackend):
            raise CommunicationError("backend must be a TransportBackend")
        if wall_time_scale < 0:
            raise CommunicationError("wall_time_scale must be non-negative")
        self.link = link or LinkModel()
        #: The one network rule every closed quorum is charged by, and its
        #: ``bandwidth`` the one link speed every reply is drawn at; the
        #: Controller sets the deployment's (``CostModel.network_price``).
        self.price = NetworkPrice(NetworkParameters.bandwidth_bytes_per_s)
        #: Which machine each node runs on (``ClusterConfig.machines``); a
        #: node not named has a machine of its own.  The Controller sets it.
        self.machines: Dict[str, str] = {}
        self.failures = failures or FailureInjector(seed=seed)
        #: The one communication record: every pull fact is written here once.
        self.ledger = Ledger()
        self.executor = executor or SerialExecutor()
        self.wire_format = parse_wire_format(wire_format)
        self.backend = backend or InProcessBackend(wire_format=self.wire_format)
        self.wall_time_scale = wall_time_scale
        self._rng = make_rng(seed)
        self._nodes: Dict[str, object] = {}
        #: Opt-in resilience hooks, wired by the Controller when the config
        #: enables them.  Both default to ``None`` so the planning, RNG
        #: consumption and accounting of a vanilla run are untouched — this
        #: is what keeps every pre-resilience golden trace byte-identical.
        self.hedge: Optional[WavePolicy] = None
        self.health = None  # duck-typed: repro.core.health.LivenessDetector

    @property
    def stats(self) -> TransportStats:
        """The deployment-wide communication totals, folded from :attr:`ledger`."""
        return self.ledger.stats

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_node(self, node_id: str, node: object) -> None:
        """Record that ``node_id`` exists (its handlers are added separately)."""
        if node_id in self._nodes:
            raise CommunicationError(f"node id '{node_id}' already registered")
        self._nodes[node_id] = node
        self.backend.register_node(node_id, node)

    def register_handler(self, node_id: str, kind: str, handler: Handler) -> None:
        """Register the server-side handler answering pulls of ``kind`` at ``node_id``."""
        self.backend.register_handler(node_id, kind, handler)

    def known_nodes(self) -> List[str]:
        return sorted(self._nodes)

    def get_node(self, node_id: str) -> object:
        """The node object registered under ``node_id`` (KeyError if unknown)."""
        return self._nodes[node_id]

    def has_handler(self, node_id: str, kind: str) -> bool:
        return self.backend.has_handler(node_id, kind)

    def sync_node_state(self, node_id: str, what: str, vector) -> None:
        """Mirror a handler-visible state mutation to the node's remote replica.

        A no-op for in-process delivery (handlers read the live object); the
        socket backend forwards the new state to the hosting subprocess so
        peer pulls observe exactly what the in-process path would.
        """
        self.backend.sync_state(node_id, what, vector)

    def close(self) -> None:
        """Shut down the delivery backend and the execution engine."""
        self.backend.close()
        self.executor.shutdown()

    def use_executor(self, executor: "Executor") -> None:
        """Swap the execution engine used by :meth:`pull_many`.

        The previous engine is shut down so a replaced thread pool does not
        leak its worker threads.
        """
        from repro.core.executor import Executor

        if not isinstance(executor, Executor):
            raise CommunicationError("executor must be a repro.core.executor.Executor")
        if executor is not self.executor:
            self.executor.shutdown()
        self.executor = executor

    # ------------------------------------------------------------------ #
    # Pulls
    # ------------------------------------------------------------------ #
    def vector_nbytes(self, dimension: int) -> int:
        """What one ``dimension``-vector message costs in this transport's
        wire format: :func:`~repro.network.serialization.message_nbytes`."""
        return message_nbytes(dimension, self.wire_format)

    def _payload_nbytes(self, payload: Any) -> int:
        if payload is None:
            return 64  # a bare header / control message
        if isinstance(payload, np.ndarray):
            return self.vector_nbytes(payload.size)
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        if isinstance(payload, (list, tuple)):
            return sum(self._payload_nbytes(item) for item in payload)
        return 128

    def sharded_reply_nbytes(self, shard_map) -> int:
        """Size of one reply scattered as per-shard slice messages.

        Mirrors :meth:`_payload_nbytes` for a ``d``-sized vector split by a
        :class:`~repro.sharding.shard_map.ShardMap`: each slice is one message
        priced by :func:`~repro.network.serialization.message_nbytes`, so the
        reply costs ``num_shards - 1`` more headers than the unsharded one.
        Slice traffic is *accounted* at this size, never framed: a sharded
        round is wire-identical to the classic one (see ``docs/sharding.md``).
        """
        return sum(self.vector_nbytes(size) for size in shard_map.sizes)

    def coordinate_shards(self, requester: str, quorum: int, num_shards: int) -> None:
        """Record one two-phase shard-coordination exchange at its framed sizes.

        ``num_shards - 1`` partial ``(q, q)`` distance matrices converge on
        the coordinator lane and ``num_shards - 1`` index broadcasts fan back
        out, all at full float64 framing.  Everything is deterministic — the
        latencies use zero jitter, so no RNG is consumed and the pull stream
        stays identical to an unsharded round.  The fan-in and fan-out each
        travel in parallel, and each hop is charged like a quorum of its
        frames (:attr:`price`).
        """
        if num_shards <= 1 or quorum <= 0:
            return
        frames = num_shards - 1
        for nbytes in (serialized_nbytes(quorum * quorum), serialized_nbytes(quorum)):
            latency = self.latency(0.0, nbytes)
            self.ledger.coordinated(requester, frames, nbytes, latency, self.price.quorum([(latency, nbytes)] * frames))

    def latency(self, jitter: float, nbytes: int, factor: float = 1.0) -> float:
        """One-way latency of an ``nbytes`` message given its pre-sampled
        ``jitter``: base latency, jitter and the transfer at the one link
        speed, stretched by the sender's straggler ``factor``."""
        return factor * (self.link.base_latency + jitter + nbytes / self.price.bandwidth)

    def crosses(self, source: str, destination: str) -> bool:
        """Whether a message between the two nodes leaves its machine (:attr:`machines`)."""
        return self.machines.get(source, source) != self.machines.get(destination, destination)

    def wall_delay(self, latency: float) -> float:
        """Real seconds a reply of simulated ``latency`` is held back (0 without wall fidelity)."""
        if self.wall_time_scale > 0 and np.isfinite(latency):
            return latency * self.wall_time_scale
        return 0.0

    def _plan(self, source: str, destination: str, kind: str) -> Optional[_PlannedPull]:
        """Pre-sample one pull's random quantities, in wave order.

        Raises on crashed peers and unknown kinds (the wave turns a crash
        into a refused pull and propagates the rest); returns ``None`` when
        the message is lost — dropped by the lossy link or cut off by a
        network partition between ``source`` and ``destination``.
        """
        if self.failures.is_crashed(destination):
            raise NodeCrashedError(f"node '{destination}' has crashed")
        if not self.backend.has_handler(destination, kind):
            raise CommunicationError(f"node '{destination}' serves no '{kind}' requests")
        if self.failures.is_unreachable(source, destination):
            return None  # partitioned away: lost without consuming drop randomness
        if self.failures.should_drop():
            return None
        return _PlannedPull(
            destination=destination,
            jitter=self.link.sample_jitter(self._rng),
            factor=self.failures.latency_factor(destination),
        )

    def make_reply(self, plan: _PlannedPull, kind: str, iteration: int, response: Any) -> Reply:
        """Assemble the reply to one planned pull from its handler's response.

        Everything stochastic (``jitter``, ``factor``, drop decisions) was
        sampled before dispatch, so this is deterministic and safe to run
        concurrently with other destinations' replies.
        """
        nbytes = self._payload_nbytes(response)
        return Reply(
            source=plan.destination,
            kind=kind,
            iteration=iteration,
            payload=response,
            latency=self.latency(plan.jitter, nbytes, plan.factor),
            nbytes=nbytes,
        )

    def pull_many(
        self,
        source: str,
        destinations: Sequence[str],
        kind: str,
        quorum: int,
        iteration: int = 0,
        payload: Any = None,
        sink: Optional[RoundBuffer] = None,
        shard_map=None,
    ) -> Tuple[List[Reply], float]:
        """Pull from ``destinations`` concurrently; return the fastest ``quorum`` replies.

        One loop whatever the policy: the wave policy (:attr:`hedge`, or the
        default :class:`~repro.network.resilience.WavePolicy`) names the first
        wave, :meth:`_wave` plans, dispatches and classifies it, the policy
        turns the outcomes into follow-up pulls (none by default), those run
        through :meth:`_wave` too, and the fastest ``quorum`` arrivals of all
        waves win.  While the quorum is still short after a follow-up wave,
        the policy turns every outcome so far into the next wave, over the
        reserves still unasked, until it asks no one.  By default the first
        wave is every destination in the caller's order; see
        :class:`~repro.network.resilience.HedgePolicy` for the hedged waves.

        Returns ``(replies, elapsed)``: the replies in arrival order, a reply
        to a follow-up pull issued at ``t`` carrying ``t`` plus its own
        latency, and the simulated time :attr:`price` charges the quorum —
        the selected replies cross the requester's link first in, first out,
        after the payloads every asked peer was shipped.  Replies that were
        not selected, and every message between the requester and a peer on
        its own machine, cost nothing.  Crashed peers and
        silent (Byzantine drop) replies never count towards the quorum; if
        fewer than ``quorum`` usable replies exist, :class:`TimeoutError` is
        raised — this is exactly the liveness condition requiring ``q + f``
        deployed nodes in asynchronous settings.

        When ``sink`` (a :class:`RoundBuffer`) is given, each selected
        reply's payload is additionally written into row *i* of the buffer,
        in arrival order — the zero-copy hand-off consumed by
        ``GAR.aggregate_matrix``, and the round's single payload copy.

        With a ``shard_map`` each reply is scattered as one slice message
        per shard: the :attr:`ledger` records it at the slice-framed total
        (:meth:`sharded_reply_nbytes`).  Latency (and therefore arrival order,
        elapsed time and the RNG stream) is always derived from the reply's
        own framed size, which is what keeps sharded runs byte-identical to
        unsharded ones.  The closed quorum is written to the ledger once, on
        the requester's account, at the slice-framed total.
        """
        if quorum <= 0:
            raise CommunicationError("quorum must be positive")
        if quorum > len(destinations):
            raise CommunicationError(
                f"quorum {quorum} exceeds the number of destinations {len(destinations)}"
            )
        policy = self.hedge or _PULL_EVERYONE
        reply_messages, reply_nbytes = 1, None
        if shard_map is not None:
            reply_messages = shard_map.num_shards
            reply_nbytes = self.sharded_reply_nbytes(shard_map)
        shipped = 0 if payload is None else self._payload_nbytes(payload)
        request = (source, kind, iteration, payload, shipped, reply_nbytes)
        wave, reserves = policy.first_wave(destinations, quorum)
        outcomes = self._wave(wave, policy, request)
        hedges = policy.follow_ups(outcomes, reserves)
        while hedges:
            last = len(outcomes)
            outcomes += self._wave(hedges, policy, request, follow_up=True)
            if sum(o.status == "usable" for o in outcomes) >= quorum:
                break
            asked = {destination for destination, _ in hedges}
            reserves = [peer for peer in reserves if peer not in asked]
            hedges = policy.follow_ups(outcomes, reserves, last)

        usable = [outcome for outcome in outcomes if outcome.status == "usable"]
        if len(usable) < quorum:
            raise self._quorum_shortfall(
                kind,
                iteration,
                quorum,
                destinations=destinations,
                replied=[o.destination for o in usable],
                lost=list(dict.fromkeys(o.destination for o in outcomes if o.status == "lost")),
                silent=[o.destination for o in outcomes if o.status == "silent"],
            )
        usable.sort(key=lambda outcome: outcome.arrival)  # stable: ties keep wave order
        del usable[quorum:]
        selected = [
            o.reply if o.arrival == o.reply.latency else replace(o.reply, latency=o.arrival)
            for o in usable
        ]
        # Only what crosses a link is priced; a reply from the requester's
        # own machine was still drawn, ordered and selected like the others.
        crossing = [reply for reply in selected if self.crosses(source, reply.source)]
        sizes = [reply.nbytes if reply_nbytes is None else reply_nbytes for reply in crossing]
        requests = sum(self.crosses(source, o.destination) for o in outcomes) if shipped else 0
        elapsed = self.price.quorum([(reply.latency, size) for reply, size in zip(crossing, sizes)], requests * shipped)
        self.ledger.closed(source, len(crossing) * reply_messages, elapsed, sum(sizes))
        if self.ledger.quorums is not None:
            # Each arrival less its transfer, which a re-pricing adds back at its own link speed.
            factors = [self.failures.latency_factor(reply.source) for reply in crossing]
            replies = tuple((reply.latency - factor * reply.nbytes / self.price.bandwidth, factor, size)
                            for reply, factor, size in zip(crossing, factors, sizes))
            self.ledger.quorums.append(Quorum(source, kind, requests, shipped, replies))
        if sink is not None:
            sink.reset()
            for index, reply in enumerate(selected):
                sink.write_row(index, reply.payload)
        return selected, elapsed

    def _wave(
        self,
        wave: Sequence[Tuple[str, float]],
        policy: WavePolicy,
        request: Tuple[str, str, int, Any, int, Optional[int]],
        follow_up: bool = False,
    ) -> List[PullOutcome]:
        """Plan, dispatch and classify one wave of pulls; one outcome per pull.

        1. *Plan* (serial, in wave order) — record the wave as issued, on the
           requester's account when the request ships a payload, notice crashed
           peers, sample the drop decision and the latency jitter.  Nothing
           else in a quorum pull touches shared randomness.
        2. *Dispatch* — the backend delivers every planned pull
           (:meth:`TransportBackend.deliver`); with a threaded engine, or
           over sockets, peers are serviced concurrently.
        3. *Classify* (serial, in wave order, whatever order the engine
           finished in) — each pull exactly once: refused, dropped, lost
           mid-reply, silent or infinitely late, or usable.  Every served
           reply is accounted, every outcome reaches the liveness detector,
           and the policy's deadline for a peer (counted from the pull's issue
           time) is read immediately before that peer's own latency is folded
           in — so it already reflects the peers classified before it in this
           wave.
        """
        source, kind, iteration, payload, shipped, reply_nbytes = request
        remote = sum(self.crosses(source, destination) for destination, _ in wave)
        self.ledger.issued(source, len(wave), remote, follow_up, shipped)
        plans: List[Any] = []
        for destination, _ in wave:
            try:
                plans.append(self._plan(source, destination, kind))
            except NodeCrashedError:
                plans.append(_REFUSED)

        planned = [plan for plan in plans if isinstance(plan, _PlannedPull)]
        context = RequestContext(requester=source, iteration=iteration, payload=payload)
        # A peer that dies mid-reply delivers nothing: its slot stays None.
        replies: List[Optional[Reply]] = [None] * len(planned)
        for index, reply in self.backend.deliver(self, planned, kind, context):
            replies[index] = reply
        served = iter(replies)

        # The link's idea of "late" before any peer has a latency history: a
        # handful of base latencies plus mean jitter — generous for a healthy
        # link, far below a wedged or heavily straggling peer.
        cold_start = 4.0 * (self.link.base_latency + self.link.jitter)
        outcomes: List[PullOutcome] = []
        for (destination, issued_at), plan in zip(wave, plans):
            arrival, reply = math.inf, None
            if plan is _REFUSED:
                status, deadline = "refused", issued_at  # a refused dial is known at once
            else:
                deadline = issued_at + policy.deadline(destination, cold_start)
                if plan is None:
                    status = "dropped"
                elif (reply := next(served)) is None:
                    # The peer died between planning and serving (over real
                    # sockets a SIGKILL lands at any instant): it is lost
                    # exactly once — its own reply is discarded, nothing else.
                    status = "lost"
                else:
                    recorded = reply.nbytes if reply_nbytes is None else reply_nbytes
                    self.ledger.served(reply.kind, recorded, reply.latency, follow_up)
                    if reply.is_silent or not math.isfinite(reply.latency):
                        status = "silent"
                    else:
                        status, arrival = "usable", issued_at + reply.latency
                        policy.observe(destination, reply.latency)
            outcomes.append(PullOutcome(destination, status, deadline, arrival, reply))
            self._note_health(outcomes[-1])
        return outcomes

    def _note_health(self, outcome: PullOutcome) -> None:
        """Feed one classified pull to the liveness detector, when attached.

        Only fan-out pulls report — they are classified on the coordinating
        thread, so the detector needs no locking.
        """
        health = self.health
        if health is None:
            return
        if outcome.status == "usable":
            health.observe_success(outcome.destination, outcome.reply.latency)
        elif outcome.status == "refused":
            health.observe_refused(outcome.destination)
        else:
            health.observe_timeout(outcome.destination)

    @staticmethod
    def _quorum_shortfall(
        kind: str,
        iteration: int,
        quorum: int,
        *,
        destinations: Sequence[str],
        replied: Sequence[str],
        lost: Sequence[str],
        silent: Sequence[str],
    ) -> TimeoutError:
        """Build the deficit-naming quorum-shortfall error.

        Names every peer by category so fuzz shrink reports and operator logs
        show *which* replies were missing, not just how many: peers that
        replied usably, peers lost mid-reply (died while serving), peers whose
        reply was silent or infinitely late, and peers that never replied at
        all (crashed, partitioned, dropped, or never sampled by a hedged
        pull).
        """

        def _fmt(names: Sequence[str]) -> str:
            return ", ".join(names) if names else "none"

        accounted = set(replied) | set(lost) | set(silent)
        never = [d for d in destinations if d not in accounted]
        return TimeoutError(
            f"quorum shortfall for '{kind}' at iteration {iteration}: "
            f"{len(replied)} usable replies, needed {quorum} "
            f"[replied: {_fmt(replied)} | lost mid-reply: {_fmt(lost)} | "
            f"silent/late: {_fmt(silent)} | never replied: {_fmt(never)}]"
        )
