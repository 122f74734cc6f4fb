"""Aliasing-safety property suite for the zero-copy gradient pipeline.

The flat-buffer pipeline hands read-only views across layer boundaries
instead of defensive copies: round-buffer matrices to GARs, flat parameter
views onto the wire, zero-copy decoded vectors to handlers.  The safety
contract is that **nothing ever writes through those views** — a mutation
attempt must raise, and every consumer that needs ownership copies.  These
property tests sweep every registered GAR and attack, the server update
path, and the binding invariants of :class:`FlatParameterView` across
checkpoint restore and process-backend snapshot/respawn.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregators import available_gars, init
from repro.attacks import ATTACK_REGISTRY, build_attack
from repro.core.byzantine import ByzantineServer, ByzantineWorker
from repro.core.node import Node
from repro.core.server import Server
from repro.core.worker import Worker
from repro.datasets.partition import partition_iid
from repro.datasets.synthetic import make_classification
from repro.network.message import RequestContext
from repro.network.serialization import deserialize_vector, serialize_vector
from repro.network.transport import RoundBuffer, Transport
from repro.nn.models import LogisticRegression


def readonly_matrix(q: int = 9, d: int = 12, seed: int = 0) -> np.ndarray:
    matrix = np.random.default_rng(seed).normal(size=(q, d))
    matrix.setflags(write=False)
    return matrix


def build_cluster(num_workers=4, num_servers=2, seed=0, momentum=0.0):
    transport = Transport(seed=seed)
    dataset = make_classification(160, (1, 4, 4), num_classes=4, noise=0.3, seed=seed)
    train, test = dataset.split(0.25, seed=seed)
    shards = partition_iid(train, num_workers, seed=seed)
    workers = [
        Worker(
            f"worker-{i}",
            transport,
            LogisticRegression(input_dim=16, num_classes=4, seed=0),
            shards[i],
            batch_size=8,
            seed=seed + i,
            momentum=momentum,
        )
        for i in range(num_workers)
    ]
    server_ids = [f"server-{i}" for i in range(num_servers)]
    servers = [
        Server(
            server_ids[i],
            transport,
            LogisticRegression(input_dim=16, num_classes=4, seed=0),
            workers=[w.node_id for w in workers],
            servers=server_ids,
            test_dataset=test,
            learning_rate=0.1,
            momentum=momentum,
        )
        for i in range(num_servers)
    ]
    return transport, servers, workers


class TestGarsNeverWriteThroughRoundViews:
    @pytest.mark.parametrize("name", available_gars())
    def test_aggregate_matrix_leaves_input_untouched(self, name):
        matrix = readonly_matrix()
        snapshot = matrix.copy()
        gar = init(name, n=matrix.shape[0], f=1)
        result = gar.aggregate_matrix(matrix)
        assert np.array_equal(matrix, snapshot), f"{name} mutated its input"
        assert not matrix.flags.writeable
        # The result is owned by the caller — it must not alias the round
        # buffer the next round will recycle.
        assert not np.shares_memory(result, matrix), f"{name} returned an aliasing result"

    @pytest.mark.parametrize("name", available_gars())
    def test_functional_form_on_readonly_matrix(self, name):
        matrix = readonly_matrix(seed=1)
        gar = init(name, n=matrix.shape[0], f=1)
        out = gar(gradients=matrix, f=1)
        assert out.shape == (matrix.shape[1],)


class TestAttacksNeverWriteThroughViews:
    @pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
    def test_craft_leaves_honest_and_peers_untouched(self, name):
        attack = build_attack(name, seed=3)
        honest = np.random.default_rng(4).normal(size=12)
        honest.setflags(write=False)
        peers = readonly_matrix(q=5, d=12, seed=5)
        honest_snapshot, peers_snapshot = honest.copy(), peers.copy()
        for _ in range(3):  # stateful attacks flip behaviour across calls
            crafted = attack(honest, peers)
            assert crafted is None or crafted.shape == honest.shape
        assert np.array_equal(honest, honest_snapshot), f"{name} mutated the honest vector"
        assert np.array_equal(peers, peers_snapshot), f"{name} mutated the peer matrix"

    @pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
    def test_craft_without_peers_on_readonly_honest(self, name):
        attack = build_attack(name, seed=6)
        honest = np.random.default_rng(7).normal(size=8)
        honest.setflags(write=False)
        crafted = attack(honest)
        assert crafted is None or crafted.shape == honest.shape


class TestServerUpdatePath:
    def test_round_matrix_is_readonly(self):
        _, servers, _ = build_cluster()
        matrix = servers[0].get_gradient_matrix(iteration=0)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_update_model_accepts_readonly_row_and_does_not_mutate_it(self):
        _, servers, _ = build_cluster()
        server = servers[0]
        matrix = server.get_gradient_matrix(iteration=0)
        snapshot = matrix.copy()
        aggregated = init("average", n=matrix.shape[0]).aggregate_matrix(matrix)
        aggregated.setflags(write=False)
        server.update_model(aggregated)  # in-place axpy reads, never writes back
        assert np.array_equal(matrix, snapshot)

    def test_update_model_accepts_a_raw_round_row(self):
        # Applying one worker's gradient directly (a read-only row view) must
        # work and must not corrupt the buffer the row aliases.
        _, servers, _ = build_cluster()
        server = servers[0]
        matrix = server.get_gradient_matrix(iteration=0)
        row = matrix[0]
        snapshot = matrix.copy()
        server.update_model(row)
        assert np.array_equal(matrix, snapshot)

    def test_flat_parameters_view_is_readonly(self):
        _, servers, _ = build_cluster()
        vector = servers[0].flat_parameters()
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 99.0

    def test_write_model_does_not_write_through_a_model_round_view(self):
        _, servers, _ = build_cluster(num_servers=3)
        server = servers[0]
        matrix = server.get_model_matrix(quorum=2, include_self=True)
        snapshot = matrix.copy()
        aggregated = init("median", n=matrix.shape[0], f=1).aggregate_matrix(matrix)
        server.write_model(aggregated)
        assert np.array_equal(matrix, snapshot)


class TestWorkerServePath:
    def test_served_gradient_is_readonly(self):
        _, _, workers = build_cluster()
        worker = workers[0]
        state = np.zeros(worker.model.num_parameters())
        gradient = worker._serve_gradient(RequestContext(requester="s", iteration=0, payload=state))
        assert not gradient.flags.writeable
        with pytest.raises(ValueError):
            gradient[0] = 1.0

    def test_served_momentum_gradient_is_readonly(self):
        transport = Transport(seed=0)
        dataset = make_classification(64, (1, 4, 4), num_classes=4, seed=1)
        worker = Worker(
            "w-m", transport, LogisticRegression(16, 4, seed=0), dataset, batch_size=8, momentum=0.9
        )
        gradient = worker._serve_gradient(
            RequestContext(requester="s", iteration=0, payload=np.zeros(worker.model.num_parameters()))
        )
        assert not gradient.flags.writeable

    def test_public_compute_gradient_is_owned(self):
        _, _, workers = build_cluster()
        worker = workers[0]
        state = np.zeros(worker.model.num_parameters())
        g1 = worker.compute_gradient(state)
        g1_snapshot = g1.copy()
        worker.compute_gradient(state)  # must not clobber the first result
        assert np.array_equal(g1, g1_snapshot)
        g1[0] = 123.0  # and it must be writable (caller owns it)


class TestZeroCopyDecode:
    def test_decoded_vector_rejects_writes(self):
        decoded = deserialize_vector(serialize_vector(np.arange(9.0)))
        with pytest.raises(ValueError):
            decoded[0] = 5.0

    def test_wire_decoded_array_rejects_writes(self):
        from repro.network.wire import decode_value, encode_value

        decoded = decode_value(encode_value({"g": np.arange(6.0)}))["g"]
        assert not decoded.flags.writeable
        with pytest.raises(ValueError):
            decoded[0] = 5.0

    def test_consecutive_frames_decode_into_storage_of_their_own(self):
        """Decoded arrays alias their frame's buffer; the next frame on the
        same connection must land somewhere else."""
        import socket

        from repro.network.wire import recv_message, send_message

        left, right = socket.socketpair()
        with left, right:
            send_message(left, {"g": np.arange(6.0)})
            send_message(left, {"g": np.full(6, -1.0)})
            first = recv_message(right)["g"]
            snapshot = first.tobytes()
            second = recv_message(right)["g"]
        assert not first.flags.writeable and not second.flags.writeable
        assert not np.shares_memory(first, second)
        assert first.tobytes() == snapshot


class TestSharedReconstructions:
    """In a narrow wire format one reconstruction is handed to every requester
    of the same vector: nobody may write it, and a round buffer copies it."""

    @staticmethod
    def int8_transport():
        transport = Transport(wire_format="int8+delta")
        for index in range(3):
            served = np.random.default_rng(index).normal(size=300)
            transport.register_node(f"worker-{index}", object())
            transport.register_handler(f"worker-{index}", "gradient", lambda ctx, v=served: v)
        return transport

    def test_a_shared_reconstruction_is_read_only(self):
        transport = self.int8_transport()
        first, second = (
            transport.backend.invoke("worker-0", "gradient", RequestContext(name, 0))
            for name in ("server-0", "server-1")
        )
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_no_round_buffer_row_aliases_it(self):
        transport = self.int8_transport()
        workers = [f"worker-{index}" for index in range(3)]
        pulled = []
        for name in ("server-0", "server-1"):
            sink = RoundBuffer(capacity=3, dimension=300)
            replies, _ = transport.pull_many(name, workers, "gradient", quorum=3, sink=sink)
            matrix = sink.matrix()
            for reply in replies:
                assert not np.shares_memory(matrix, reply.payload)
            pulled.append({reply.source: reply.payload for reply in replies})
        assert all(pulled[0][worker] is pulled[1][worker] for worker in workers)


class TestRoundBufferOwnership:
    def test_write_after_seal_raises(self):
        from repro.exceptions import CommunicationError

        buffer = RoundBuffer(capacity=3, dimension=4)
        buffer.write_row(0, np.ones(4))
        buffer.matrix()  # seal
        with pytest.raises(CommunicationError):
            buffer.write_row(1, np.ones(4))

    def test_reset_recycles_for_the_next_round(self):
        buffer = RoundBuffer(capacity=3, dimension=4)
        buffer.write_row(0, np.ones(4))
        first = buffer.matrix()
        buffer.reset()
        buffer.write_row(0, np.full(4, 2.0))
        buffer.write_row(1, np.full(4, 3.0))
        second = buffer.matrix()
        assert second.shape == (2, 4)
        assert np.allclose(second[0], 2.0)
        # Recycling reuses the storage: the old view aliases the new data,
        # which is exactly why consumers must copy to survive a round.
        assert np.shares_memory(first, second)

    def test_dimension_mismatch_rejected(self):
        from repro.exceptions import CommunicationError

        buffer = RoundBuffer(capacity=2, dimension=4)
        with pytest.raises(CommunicationError):
            buffer.write_row(0, np.ones(5))


class TestFlatViewBindingSurvival:
    def test_checkpoint_restore_keeps_view_bound(self, tmp_path):
        _, servers, _ = build_cluster()
        server = servers[0]
        view = server.flat_view()
        path = tmp_path / "ckpt.npz"
        server.save_checkpoint(path)
        server.update_model(np.ones(server.dimension))  # drift away
        server.load_checkpoint(path)
        assert server.flat_view() is view  # same buffer, still bound
        for param in server.model.parameters():
            assert np.shares_memory(param.data, view.data)

    def test_snapshot_restore_relinks_the_view(self):
        _, servers_a, workers_a = build_cluster(seed=0)
        server = servers_a[0]
        server.get_gradient_matrix(iteration=0)
        server.update_model(np.full(server.dimension, 0.01))
        blob = server.snapshot_state()

        _, servers_b, _ = build_cluster(seed=0)
        restored = servers_b[0]
        restored.restore_state(blob)
        # Restore itself re-attaches: the parameters are bound before any
        # accessor runs.
        view = restored.model.parameters()[0]._flat_view
        assert view.covers(restored.model.parameters())
        assert restored.flat_view() is view
        assert np.array_equal(
            restored.flat_parameters(), server.flat_parameters()
        )
        for param in restored.model.parameters():
            assert np.shares_memory(param.data, view.data)

    def test_worker_snapshot_restore_relinks_and_continues_identically(self):
        _, _, workers_a = build_cluster(seed=0)
        worker = workers_a[0]
        state = np.zeros(worker.model.num_parameters())
        worker._serve_gradient(RequestContext(requester="s", iteration=0, payload=state))
        blob = worker.snapshot_state()

        _, _, workers_b = build_cluster(seed=0)
        restored = workers_b[0]
        restored.restore_state(blob)
        assert restored.model.parameters()[0]._flat_view.covers(restored.model.parameters())
        # Both continue from the identical mini-batch cursor and state.
        next_a = worker.compute_gradient(state)
        next_b = restored.compute_gradient(state)
        assert np.array_equal(next_a, next_b)


class TestSnapshotContinuesOnTheOneTier:
    """A node pickled mid-run continues bit-identically, through the view alone.

    There is no per-layer path left to mask a severed binding: after
    ``restore_state`` every vector read, write and served gradient must again
    alias the parameters' own storage.
    """

    @staticmethod
    def train_round(server, iteration):
        # Median: the fresh cluster's transport draws its own arrival order,
        # and a coordinate-wise rule does not see row order.
        matrix = server.get_gradient_matrix(iteration)
        server.update_model(init("median", n=matrix.shape[0], f=1).aggregate_matrix(matrix))

    def test_server_and_workers_restored_mid_run_continue_bit_identically(self):
        _, servers_a, workers_a = build_cluster(num_servers=1, seed=3, momentum=0.9)
        server = servers_a[0]
        for iteration in range(2):
            self.train_round(server, iteration)

        # Fresh nodes, then every node's mid-run state restored into them.
        _, servers_b, workers_b = build_cluster(num_servers=1, seed=3, momentum=0.9)
        restored = servers_b[0]
        restored.restore_state(server.snapshot_state())
        for worker_a, worker_b in zip(workers_a, workers_b):
            worker_b.restore_state(worker_a.snapshot_state())

        for node in [restored, *workers_b]:
            view = node.flat_view()
            for param in node.model.parameters():
                assert np.shares_memory(param.data, view.parameter_vector())
                assert np.shares_memory(param.grad, view.gradient_vector())
        assert np.shares_memory(restored.flat_parameters(), restored.model.parameters()[0].data)
        assert restored.optimizer.parameters[0] is restored.model.parameters()[0]

        for iteration in range(2, 5):
            self.train_round(server, iteration)
            self.train_round(restored, iteration)
            assert np.array_equal(server.flat_parameters(), restored.flat_parameters())
        # Optimizer momentum and worker momentum both crossed the pickle.
        assert np.array_equal(server.optimizer._flat_velocity, restored.optimizer._flat_velocity)
        for worker_a, worker_b in zip(workers_a, workers_b):
            assert np.array_equal(worker_a._velocity, worker_b._velocity)

    def test_restored_worker_serves_a_view_of_its_gradient_buffer(self):
        _, _, workers_a = build_cluster(seed=0)
        worker = workers_a[0]
        state = np.full(worker.model.num_parameters(), 0.05)
        worker._serve_gradient(RequestContext(requester="s", iteration=0, payload=state))

        _, _, workers_b = build_cluster(seed=0)
        restored = workers_b[0]
        restored.restore_state(worker.snapshot_state())
        for iteration in range(1, 4):
            context = RequestContext(requester="s", iteration=iteration, payload=state)
            served_a = worker._serve_gradient(context)
            served_b = restored._serve_gradient(context)
            assert np.array_equal(served_a, served_b)
            assert not served_b.flags.writeable
            for param in restored.model.parameters():
                assert np.shares_memory(served_b, param.grad)

    @pytest.mark.parametrize("node_type", [Worker, ByzantineWorker, Server, ByzantineServer])
    def test_node_from_snapshot_serves_bit_identically_on_its_own_transport(self, node_type):
        """What a node host does: no world, no config — the snapshot *is* the node."""
        dataset = make_classification(160, (1, 4, 4), num_classes=4, noise=0.3, seed=0)
        model = LogisticRegression(input_dim=16, num_classes=4, seed=0)
        if issubclass(node_type, Worker):
            node = node_type("node", Transport(), model, dataset, batch_size=8, momentum=0.5)
        else:
            node = node_type("node", Transport(), model, test_dataset=dataset, momentum=0.5)
        dimension = model.num_parameters()
        state = np.full(dimension, 0.05)

        def serve(target, iteration):
            """One round of everything ``target`` serves, pulled off its own transport."""
            if isinstance(target, Server):
                target.update_model(np.full(dimension, 0.01 * (iteration + 1)))
                target.latest_aggr_grad = np.full(dimension, float(iteration))
            pull = target.transport.pull_many
            return [
                np.array(pull("peer", ["node"], kind, 1, iteration, state)[0][0].payload)
                for kind in sorted(target.handlers())
            ]

        serve(node, 0)  # mid-run: cursor, momentum, cache and attack RNG have moved
        twin = Node.from_snapshot(node.snapshot_state(), Transport())

        assert type(twin) is node_type and twin is not node
        assert twin.transport is not node.transport
        assert twin.transport.get_node("node") is twin
        assert twin._serve_lock is not node._serve_lock
        view = twin.flat_view()
        for param in twin.model.parameters():
            assert np.shares_memory(param.data, view.parameter_vector())
            assert np.shares_memory(param.grad, view.gradient_vector())
        for iteration in range(1, 4):
            for served, expected in zip(serve(twin, iteration), serve(node, iteration)):
                assert np.array_equal(served, expected)
