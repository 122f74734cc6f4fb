"""Encode once, fan out: the :class:`~repro.network.serialization.StreamTable`.

The streams of one source ``(node, kind)`` share its last crossing, so a
vector several requesters pull is quantized once.  A hit must be exactly what
encoding again would produce: these tests pin the hit rule (same reference
*object*, same input *bits*), the training run it must leave untouched, the
calls it saves, and the threads it must survive.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.session import Session
from repro.exceptions import DeadlineError
from repro.network import serialization
from repro.network.message import RequestContext
from repro.network.rpc import (
    VECTOR_BLOB_KEY,
    VECTOR_SEQUENCE_KEY,
    SocketBackend,
    _HostDispatcher,
    build_probe_handlers,
)
from repro.network.serialization import StreamTable, VectorStream, serialize_with_reconstruction
from repro.network.transport import InProcessBackend

#: The end-to-end benchmark's narrow-format workload: nine workers and four
#: replicas over ``int8+delta``, four shards, fastest-q-of-n.
INT8_WORKLOAD = dict(
    deployment="msmw",
    num_workers=9,
    num_byzantine_workers=2,
    num_attacking_workers=2,
    worker_attack="reversed",
    num_servers=4,
    num_byzantine_servers=1,
    num_attacking_servers=1,
    gradient_gar="multi-krum",
    model_gar="median",
    model="logistic",
    dataset="cifar10",
    dataset_size=800,
    dataset_noise=4.0,
    batch_size=16,
    executor_workers=2,
    asynchronous=True,
    shards=4,
    wire_format="int8+delta",
)
ROUNDS = 20


class _Forgetful:
    """A source that never remembers a crossing."""

    last = property(lambda self: None, lambda self, crossing: None)


class NeverHits(StreamTable):
    """Every stream encodes every vector itself: the table before sharing."""

    def stream(self, node, kind, requester, fmt):
        key = (node, kind, requester, fmt)
        if key not in self._ends:
            self._ends[key] = VectorStream(fmt, _Forgetful())
        return self._ends[key]


def count_codec_calls(patch):
    """Counts of the int8 kernels and of whole encodes, from now on."""
    calls = {"quantize": 0, "dequantize": 0, "encode": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    patch.setattr(serialization, "_quantize_int8", counting("quantize", serialization._quantize_int8))
    patch.setattr(serialization, "_dequantize_int8", counting("dequantize", serialization._dequantize_int8))
    patch.setattr(
        serialization,
        "serialize_with_reconstruction",
        counting("encode", serialization.serialize_with_reconstruction),
    )
    return calls


@pytest.fixture
def codec_calls(monkeypatch):
    return count_codec_calls(monkeypatch)


def run_workload(executor, table_type, calls):
    """``ROUNDS`` seed-1 rounds: every ``RoundResult.to_dict()`` and the
    (quantize, dequantize) calls each round made."""
    config = ClusterConfig(
        seed=1, num_iterations=10**9, accuracy_every=10**9, executor=executor, **INT8_WORKLOAD
    )
    deployment = Controller(config).build()
    try:
        deployment.transport.backend._streams = table_type()
        session = Session(deployment)
        results, per_round = [], []
        for _ in range(ROUNDS):
            before = (calls["quantize"], calls["dequantize"])
            results.append(session.step().to_dict())
            per_round.append((calls["quantize"] - before[0], calls["dequantize"] - before[1]))
    finally:
        deployment.close()
    return results, per_round


@pytest.fixture(scope="module")
def workload_runs():
    """Both tables' runs on one executor, made once for the module."""
    cache = {}

    def runs(executor):
        if executor not in cache:
            with pytest.MonkeyPatch.context() as patch:
                calls = count_codec_calls(patch)
                cache[executor] = {
                    table: run_workload(executor, table, calls) for table in (StreamTable, NeverHits)
                }
        return cache[executor]

    return runs


def pull(backend, node, requester, kind="value", iteration=0):
    return backend.invoke(node, kind, RequestContext(requester=requester, iteration=iteration))


@pytest.mark.parametrize("executor", ["serial", "threaded"])
class TestTheWorkload:
    def test_every_round_equals_the_run_that_never_shares(self, workload_runs, executor):
        runs = workload_runs(executor)
        assert runs[StreamTable][0] == runs[NeverHits][0]

    def test_a_round_quantizes_15_vectors_not_36(self, workload_runs, executor):
        """Nine gradients, three honest-replica models each pulled by two
        peers, and the Byzantine replica's model, which its attack makes
        different for each of its three pullers.  None is dequantized: the
        sender keeps the reconstruction its quantizer computed and no longer
        decodes its own blob, and in-process the requester is handed that."""
        runs = workload_runs(executor)
        assert runs[NeverHits][1] == [(36, 0)] * ROUNDS
        assert runs[StreamTable][1] == [(15, 0)] * ROUNDS


class TestTheHitRule:
    def test_a_view_rewritten_in_place_between_pulls_is_encoded_again(self, codec_calls):
        buffer = np.linspace(-1.0, 1.0, 5000)
        view = buffer[:]
        view.flags.writeable = False
        backend = InProcessBackend("int8+delta")
        backend.register_handler("worker-0", "value", lambda context: view)
        first = pull(backend, "worker-0", "server-0")
        buffer *= 3.0
        second = pull(backend, "worker-0", "server-1")
        assert codec_calls["quantize"] == 2
        assert np.array_equal(second, serialize_with_reconstruction(buffer, "int8")[1])
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("spec", ["int8+delta", "float32"])
    def test_inputs_that_differ_only_in_the_sign_of_a_zero_do_not_share(self, spec, codec_calls):
        served = {"server-0": np.array([-0.0, 1.0, 2.0]), "server-1": np.array([0.0, 1.0, 2.0])}
        backend = InProcessBackend(spec)
        backend.register_handler("worker-0", "value", lambda context: served[context.requester])
        negative, positive = (pull(backend, "worker-0", name) for name in served)
        assert codec_calls["encode"] == 2
        if spec == "float32":
            assert np.signbit(negative[0]) and not np.signbit(positive[0])

    def test_an_equal_reference_in_another_object_does_not_share(self, codec_calls):
        table = StreamTable()
        first, second = (table.stream("worker-0", "gradient", name, "int8+delta") for name in ("s0", "s1"))
        v0, v1 = np.linspace(-1.0, 1.0, 5000), np.linspace(-1.5, 0.5, 5000)
        assert first.encode(v0) == second.encode(v0)
        assert first.reference is second.reference and codec_calls["quantize"] == 1
        second.reference = first.reference.copy()
        assert first.encode(v1) == second.encode(v1)  # the same blob, encoded twice
        assert codec_calls["quantize"] == 3
        assert first.reference is not second.reference
        assert np.array_equal(first.reference, second.reference)

    def test_threads_racing_on_one_source_get_their_own_blobs(self):
        """Four requesters of one source, each on its own thread, with the
        interpreter switching threads as often as it can.  Every third round
        all are absolute and ``s0`` goes first (sure hits: the chains meet
        again); in the next all race on one vector and one reference; in the
        third the odd ones pull vectors of their own.  Every blob is the one a
        private chain of plain encodes yields, shared or not."""
        table, rounds, size = StreamTable(), 60, 3000
        rng = np.random.default_rng(0)
        shared = [rng.normal(size=size) for _ in range(rounds)]
        own = {index: [rng.normal(size=size) for _ in range(rounds)] for index in (1, 3)}
        streams = [table.stream("worker-0", "gradient", f"s{index}", "int8+delta") for index in range(4)]
        barrier, mismatches, shared_rounds = threading.Barrier(len(streams), timeout=30), [], []

        def requester(index):
            stream, reference = streams[index], None
            for step in range(rounds):
                absolute = step % 3 == 0
                vector = own[index][step] if step % 3 == 2 and index in own else shared[step]
                barrier.wait()
                if absolute and index > 0:
                    barrier.wait()
                blob, _ = stream.encode(vector, -1 if absolute else None)
                if absolute and index == 0:
                    barrier.wait()
                expected, reference = serialize_with_reconstruction(
                    vector, "int8+delta", None if absolute else reference
                )
                if blob != expected or not np.array_equal(stream.reference, reference):
                    mismatches.append((index, step))
                barrier.wait()
                if index == 0 and all(other.reference is stream.reference for other in streams):
                    shared_rounds.append(step)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=requester, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert set(range(0, rounds, 3)) <= set(shared_rounds)


class TestTheHost:
    def test_three_requesters_get_one_encode_byte_for_byte(self, codec_calls):
        dispatcher = _HostDispatcher("probe-0", build_probe_handlers("probe-0"))
        vector = np.linspace(-1.0, 1.0, 5000)
        have = {name: 0 for name in ("server-0", "server-1", "server-2")}
        for iteration in range(2):
            replies = []
            for name in have:
                reply = dispatcher(
                    {
                        "op": "pull",
                        "kind": "scale",  # a fresh array per call: equal bits, not one object
                        "requester": name,
                        "iteration": iteration,
                        "payload": vector + iteration,
                        "fmt": "int8+delta",
                        "have": have[name],
                    }
                )
                have[name] = reply[VECTOR_SEQUENCE_KEY]
                replies.append(reply[VECTOR_BLOB_KEY])
            assert replies[0] == replies[1] == replies[2]
            assert codec_calls["quantize"] == iteration + 1
        assert set(have.values()) == {2}

    @pytest.mark.backend("process")
    def test_a_respawned_host_restarts_the_receivers_count(self, require_process_backend):
        """A new host counts its replies from 0 again.  Were the receiver to
        keep its count, losing the new host's first reply would leave the two
        counts equal, and the next reply would be a delta against a
        reconstruction the receiver never got."""
        require_process_backend()
        backend = SocketBackend(wire_format="int8+delta", probe_nodes=["probe-0"], call_timeout=0.5)
        backend.start()

        def nap(iteration, seconds=0.0):  # replies with [iteration] after a nap
            return backend.invoke("probe-0", "nap", RequestContext("tester", iteration, seconds))

        try:
            assert np.array_equal(nap(0), [0.0])
            backend.apply_control("probe-0", "crash")
            backend.apply_control("probe-0", "recover")
            with pytest.raises(DeadlineError):
                nap(1, seconds=1.0)
            time.sleep(1.0)  # the host encodes the reply nobody waits for any more
            assert np.array_equal(nap(2), [2.0])
        finally:
            backend.close()
