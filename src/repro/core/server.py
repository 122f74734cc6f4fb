"""The Server object — the centre of Garfield's object-oriented design.

A server stores and updates the model state.  Its networking interface is the
pair of abstractions from Section 3.2:

* ``get_gradients(t, q)`` — pull gradient estimates from the workers and
  return the fastest ``q`` of them (``q = n_w`` means synchronous operation).
* ``get_models(q)`` — pull model states from the other server replicas and
  return the fastest ``q``.

Both fan out one RPC per peer through the transport's execution engine
(:mod:`repro.core.executor`): with the threaded engine the workers are
serviced concurrently, so the round's wall-clock cost tracks the slowest
single peer instead of the sum over peers — while the *simulated* elapsed
time charged to the server is the latency of the ``q``-th fastest reply.

On top of those it exposes ``update_model()``, ``write_model()`` and
``compute_accuracy()``, matching Listing 1–3 of the paper.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.node import Node
from repro.datasets.synthetic import Dataset
from repro.exceptions import ConfigurationError, TrainingError
from repro.network.cost import CPU, CostModel, Device, TENSORFLOW, FrameworkProfile
from repro.network.message import RequestContext
from repro.network.transport import RoundBuffer, Transport
from repro.nn.layers import Module
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import SGD, Optimizer
from repro.nn.tensor import Tensor


class Server(Node):
    """Holds the model state, collects gradients/models and applies updates."""

    def __init__(
        self,
        node_id: str,
        transport: Transport,
        model: Module,
        workers: Sequence[str] = (),
        servers: Sequence[str] = (),
        test_dataset: Optional[Dataset] = None,
        optimizer: Optional[Optimizer] = None,
        learning_rate: float = 0.05,
        momentum: float = 0.0,
        device: Device = CPU,
        framework: FrameworkProfile = TENSORFLOW,
        cost_model: Optional[CostModel] = None,
        eval_batch_size: int = 256,
    ) -> None:
        super().__init__(node_id, transport, device=device, framework=framework, cost_model=cost_model)
        self.model = model
        # Contiguous flat parameter/gradient storage: parameter_vector reads,
        # model-state payloads and the optimizer's axpy all share one buffer.
        # Attached here so concurrent handler threads never race to build it.
        self.flat_view()
        self.workers = list(workers)
        self.servers = [s for s in servers if s != node_id]
        self.test_dataset = test_dataset
        self.optimizer = optimizer or SGD(model.parameters(), lr=learning_rate, momentum=momentum)
        self.eval_batch_size = eval_batch_size

        # Communication accounting (simulated seconds / message counts), from
        # this server's own perspective.
        self.gradient_comm_time = 0.0
        self.model_comm_time = 0.0
        self.messages_exchanged = 0
        self.iterations_run = 0

        # Per-round observations consumed by the scenario trace recorder: the
        # sources of the last gradient quorum (ordered by simulated arrival)
        # and the norm of the last aggregated update applied.
        self.last_gradient_sources: List[str] = []
        self.last_update_norm: Optional[float] = None
        #: (bytes, messages) of the last sharded gradient pull's slice
        #: traffic — consumed by the round accountant's explicit-bytes path.
        self.last_sharded_traffic = (0, 0)

        # Latest aggregated gradient — served to peers during the
        # decentralized *contract* step (Listing 3); exposed through the
        # ``latest_aggr_grad`` property so assignments reach remote replicas.
        self._latest_aggr_grad: Optional[np.ndarray] = None

        # Per-kind preallocated reply matrices, recycled every round: the
        # transport writes each selected reply straight into a row, GARs
        # consume the sealed read-only view (see RoundBuffer's ownership
        # rules).  Keyed by RPC kind; capacity covers every peer plus one
        # extra row for this server's own vector where the protocols append
        # it (model contraction, decentralized re-aggregation).
        self._round_buffers: dict = {}

    def handlers(self):
        return {
            "model": self._serve_model,
            "aggregated_gradient": self._serve_aggregated_gradient,
        }

    # ------------------------------------------------------------------ #
    # Model state accessors
    # ------------------------------------------------------------------ #
    @property
    def executor(self):
        """The execution engine this server's RPC fan-outs run on."""
        return self.transport.executor

    @property
    def dimension(self) -> int:
        return self.model.num_parameters()

    def flat_parameters(self) -> np.ndarray:
        """The current model state as one flat vector.

        A **read-only zero-copy view** that tracks the live model; callers
        needing a snapshot must ``copy()``.
        """
        return self.flat_view().parameter_vector()

    @property
    def latest_aggr_grad(self) -> Optional[np.ndarray]:
        """Latest published aggregate (decentralized contract step)."""
        return self._latest_aggr_grad

    @latest_aggr_grad.setter
    def latest_aggr_grad(self, value: Optional[np.ndarray]) -> None:
        self._latest_aggr_grad = value
        self.transport.sync_node_state(self.node_id, "aggr_grad", value)

    def _sync_served_state(self) -> None:
        """Mirror the model state to this node's remote replica (if any).

        In-process backends serve pulls straight from this object, so the
        call is free (the vector is a view); under the process backend the
        hosting subprocess must observe every mutation before a peer can
        pull it.
        """
        self.transport.sync_node_state(self.node_id, "params", self.flat_parameters())

    def write_model(self, flat_model: np.ndarray) -> None:
        """Overwrite the model state (used after aggregating replica models)."""
        flat_model = np.asarray(flat_model, dtype=np.float64)
        if flat_model.size != self.dimension:
            raise ConfigurationError(
                f"write_model received a vector of dimension {flat_model.size}, "
                f"model has {self.dimension}"
            )
        self.flat_view().set_parameters(flat_model)
        self._sync_served_state()

    def update_model(self, aggregated_gradient: np.ndarray) -> None:
        """Apply one SGD step using the aggregated gradient (Equation 2)."""
        aggregated_gradient = np.asarray(aggregated_gradient, dtype=np.float64)
        if not np.all(np.isfinite(aggregated_gradient)):
            raise TrainingError("aggregated gradient contains non-finite values")
        self.optimizer.apply_flat_gradient(aggregated_gradient)
        self.last_update_norm = float(np.linalg.norm(aggregated_gradient))
        self.iterations_run += 1
        self._sync_served_state()

    # ------------------------------------------------------------------ #
    # Networking abstractions
    # ------------------------------------------------------------------ #
    def _round_buffer(self, kind: str, capacity: int, shard_map=None):
        """The preallocated reply sink for ``kind``, rebuilt if peers changed.

        A :class:`~repro.network.transport.RoundBuffer`, or with ``shard_map``
        the :class:`~repro.sharding.buffers.ShardedRoundBuffer` staging it.
        """
        key = kind if shard_map is None else f"{kind}-sharded"
        buffer = self._round_buffers.get(key)
        if (
            buffer is None
            or buffer.capacity < capacity
            or buffer.dimension != self.dimension
            or getattr(buffer, "shard_map", None) != shard_map
        ):
            if shard_map is None:
                buffer = RoundBuffer(capacity, self.dimension)
            else:
                from repro.sharding.buffers import ShardedRoundBuffer

                buffer = ShardedRoundBuffer(capacity, shard_map)
            self._round_buffers[key] = buffer
        return buffer

    def _pull(
        self,
        kind: str,
        iteration: int,
        quorum: Optional[int] = None,
        targets: Optional[Sequence[str]] = None,
        shard_map=None,
    ):
        """Quorum-pull ``kind`` into this server's round buffer and account it.

        The one pull behind every ``get_*_matrix``.  Gradients come from the
        workers (``targets`` may restrict them) and the request ships the
        current model state; everything else comes from the peer replicas.
        All RPCs are issued concurrently through :attr:`executor`; rows are
        ordered by simulated arrival, and the elapsed time charged to this
        server is the latency of the ``quorum``-th fastest reply — never the
        sum over peers.  Returns the filled, still unsealed buffer.
        """
        gradients = kind == "gradient"
        peers = self.workers if gradients else self.servers
        if not peers:
            raise ConfigurationError(f"this server has no peers to pull '{kind}' from")
        targets = peers if targets is None else list(targets)
        if not targets:
            raise ConfigurationError(f"'{kind}' pull needs at least one target")
        unknown = [name for name in targets if name not in peers]
        if unknown:
            raise ConfigurationError(f"cannot pull '{kind}' from unknown peers {unknown}")
        # Replica pulls keep a spare row for this server's own vector (model
        # contraction, decentralized re-aggregation).
        buffer = self._round_buffer(kind, len(peers) + (0 if gradients else 1), shard_map)
        # A sharded reply arrives as one slice message per shard and is
        # charged slice-framed.
        reply_nbytes = None if shard_map is None else self.transport.sharded_reply_nbytes(shard_map)
        reply_messages = 1 if shard_map is None else shard_map.num_shards
        replies, elapsed = self.transport.pull_many(
            self.node_id,
            targets,
            kind,
            quorum=len(targets) if quorum is None else quorum,
            iteration=iteration,
            payload=self.flat_parameters() if gradients else None,
            sink=buffer,
            record_nbytes=reply_nbytes,
        )
        if gradients:
            self.gradient_comm_time += elapsed
            # Each request carried the model state: one more d-sized message
            # through this server's NIC per target.
            self.messages_exchanged += len(targets)
            self.last_gradient_sources = [reply.source for reply in replies]
            if shard_map is not None:
                self.last_sharded_traffic = (
                    len(replies) * reply_nbytes,
                    len(replies) * reply_messages,
                )
        else:
            self.model_comm_time += elapsed
        self.messages_exchanged += len(replies) * reply_messages
        return buffer

    def get_gradient_matrix(
        self,
        iteration: int,
        quorum: Optional[int] = None,
        workers: Optional[List[str]] = None,
    ) -> np.ndarray:
        """Pull worker gradients into the round buffer; return the ``(q, d)`` view.

        ``quorum`` defaults to the number of pulled workers (synchronous,
        fault-free operation); ``workers`` restricts the pull to a subset of
        this server's workers (detection-driven membership — evicted workers
        are neither contacted nor waited for).

        The returned matrix is **read-only** and recycled by the next
        gradient pull; aggregate it immediately (``gar.aggregate_matrix``) or
        copy.
        """
        return self._pull("gradient", iteration, quorum, workers).matrix()

    def get_sharded_gradient_matrices(
        self,
        iteration: int,
        shard_map,
        quorum: Optional[int] = None,
        workers: Optional[List[str]] = None,
    ):
        """Pull worker gradients into a per-shard staging buffer (sharded tier).

        Identical to :meth:`get_gradient_matrix` on the wire — same targets,
        same quorum selection, same RNG consumption, same reply latencies (a
        worker's uplink still serializes all of its slices, so the reply's
        arrival time is that of the full ``d``-sized payload) — but the sink
        is a :class:`~repro.sharding.buffers.ShardedRoundBuffer`: replies are
        staged as row views and only one ``(q, d_shard)`` slice is ever
        materialized at a time.  Stats bytes are charged slice-framed
        (:meth:`~repro.network.transport.Transport.sharded_reply_nbytes`) and
        each reply counts as ``num_shards`` messages; the slice-traffic totals
        are exposed via :attr:`last_sharded_traffic` for the round accountant.

        Returns the staged buffer; consume it with
        :func:`repro.sharding.aggregation.aggregate_shards` before the next
        pull of any kind reuses the workers' gradient storage.
        """
        return self._pull("gradient", iteration, quorum, workers, shard_map)

    def record_shard_coordination(self, quorum: int, num_shards: int) -> tuple:
        """Account one two-phase coordination exchange; returns ``(bytes, messages)``.

        ``num_shards - 1`` partial ``(q, q)`` distance matrices converge on
        the coordinator lane and ``num_shards - 1`` index broadcasts fan back
        out, all at full float64 framing.  Everything is deterministic — the
        latencies use zero jitter, so no RNG is consumed and the pull stream
        stays identical to an unsharded round.  The fan-in and fan-out each
        travel in parallel, so the simulated elapsed time charged is one
        partial-matrix hop plus one broadcast hop.
        """
        from repro.network.serialization import serialized_nbytes

        if num_shards <= 1 or quorum <= 0:
            return 0, 0
        partial = serialized_nbytes(quorum * quorum)
        indices = serialized_nbytes(quorum)
        total = 0
        messages = 0
        for nbytes in (partial, indices):
            latency = self.transport.link.latency_from_jitter(0.0, nbytes)
            for _ in range(num_shards - 1):
                self.transport.stats.record("shard-coordination", nbytes, latency)
                total += nbytes
                messages += 1
            self.gradient_comm_time += latency
        self.messages_exchanged += messages
        return total, messages

    def get_gradients(self, iteration: int, quorum: Optional[int] = None) -> List[np.ndarray]:
        """Pull gradient estimates from the workers; return the fastest ``quorum``.

        Legacy list form of :meth:`get_gradient_matrix`: each entry is an
        independent copy the caller owns (safe to hold across rounds).  Hot
        paths should prefer the zero-copy matrix form.
        """
        matrix = self.get_gradient_matrix(iteration, quorum)
        return [np.array(row) for row in matrix]

    def get_model_matrix(
        self,
        quorum: Optional[int] = None,
        iteration: int = 0,
        include_self: bool = False,
        peers: Optional[List[str]] = None,
    ) -> np.ndarray:
        """Pull peer model states into the round buffer; return the ``(q, d)`` view.

        With ``include_self`` the server's own parameter vector is appended as
        the final row — the layout Listing 2/3 aggregate.  ``peers`` restricts
        the pull to a subset of the replicas (replicas declared dead are
        neither contacted nor waited for).  Read-only, recycled by the next
        model pull.
        """
        buffer = self._pull("model", iteration, quorum, peers)
        if include_self:
            buffer.append_row(self.flat_parameters())
        return buffer.matrix()

    def get_models(self, quorum: Optional[int] = None, iteration: int = 0) -> List[np.ndarray]:
        """Pull model states from the other server replicas; return the fastest ``quorum``.

        Legacy list form of :meth:`get_model_matrix`; entries are independent
        copies the caller owns.
        """
        matrix = self.get_model_matrix(quorum, iteration=iteration)
        return [np.array(row) for row in matrix]

    def get_aggr_grad_matrix(
        self,
        quorum: Optional[int] = None,
        iteration: int = 0,
        extra: Optional[np.ndarray] = None,
        peers: Optional[List[str]] = None,
    ) -> np.ndarray:
        """Pull peers' latest aggregates into the round buffer (contract step).

        ``extra`` (this node's own aggregate in Listing 3) is appended as the
        final row; ``peers`` restricts the pull as in :meth:`get_model_matrix`.
        Read-only, recycled by the next aggregated-gradient pull.
        """
        buffer = self._pull("aggregated_gradient", iteration, quorum, peers)
        if extra is not None:
            buffer.append_row(extra)
        return buffer.matrix()

    def get_aggr_grads(self, quorum: Optional[int] = None, iteration: int = 0) -> List[np.ndarray]:
        """Pull the latest aggregated gradients from peers (decentralized contract step).

        Legacy list form of :meth:`get_aggr_grad_matrix`; entries are
        independent copies the caller owns.
        """
        matrix = self.get_aggr_grad_matrix(quorum, iteration=iteration)
        return [np.array(row) for row in matrix]

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, path) -> None:
        """Persist the model state and iteration counter to an ``.npz`` file.

        Checkpointing is the classical (weaker) alternative to replication for
        surviving server failures; it is provided so applications can combine
        both.
        """
        np.savez(
            path,
            parameters=self.flat_parameters(),
            iterations_run=np.asarray(self.iterations_run),
        )

    def load_checkpoint(self, path) -> int:
        """Restore a checkpoint written by :meth:`save_checkpoint`.

        Returns the iteration counter stored in the checkpoint.
        """
        with np.load(path) as data:
            parameters = data["parameters"]
            iterations = int(data["iterations_run"])
        self.write_model(parameters)
        self.iterations_run = iterations
        return iterations

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def compute_accuracy(self, dataset: Optional[Dataset] = None) -> float:
        """Top-1 accuracy of the current model on the test set."""
        dataset = dataset or self.test_dataset
        if dataset is None:
            raise ConfigurationError("no test dataset available for compute_accuracy")
        self.model.eval()
        correct = 0
        total = 0
        for start in range(0, len(dataset), self.eval_batch_size):
            images = dataset.images[start : start + self.eval_batch_size]
            labels = dataset.labels[start : start + self.eval_batch_size]
            logits = self.model(Tensor(images))
            correct += int((logits.data.argmax(axis=-1) == labels).sum())
            total += len(labels)
        self.model.train()
        return correct / total if total else 0.0

    def compute_loss(self, dataset: Optional[Dataset] = None) -> float:
        """Mean cross-entropy loss of the current model on the test set."""
        dataset = dataset or self.test_dataset
        if dataset is None:
            raise ConfigurationError("no test dataset available for compute_loss")
        self.model.eval()
        loss_fn = CrossEntropyLoss()
        losses = []
        for start in range(0, len(dataset), self.eval_batch_size):
            images = dataset.images[start : start + self.eval_batch_size]
            labels = dataset.labels[start : start + self.eval_batch_size]
            logits = self.model(Tensor(images))
            losses.append(loss_fn(logits, labels).item())
        self.model.train()
        return float(np.mean(losses)) if losses else 0.0

    # ------------------------------------------------------------------ #
    # Transport handlers (what this server serves to its peers)
    # ------------------------------------------------------------------ #
    def _serve_model(self, context: RequestContext) -> np.ndarray:
        return self.flat_parameters()

    def _serve_aggregated_gradient(self, context: RequestContext) -> Optional[np.ndarray]:
        return self.latest_aggr_grad
