"""The one object every backend moves a reply vector through.

:class:`~repro.network.serialization.VectorStream` is either end of a stream:
the in-process backend and a node host keep sender ends, the socket backend
keeps receiver ends.  This module pins the stream in isolation — both ends
stay bit-identical in every format, the stream restarts itself (one absolute
blob, then deltas again) whenever the ends disagree — and then through the
two appliers without a subprocess: a host dispatcher behind a real
``RpcServer`` socket answers exactly what ``InProcessBackend`` answers.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SerializationError
from repro.network.message import RequestContext
from repro.network.rpc import (
    VECTOR_BLOB_KEY,
    VECTOR_SEQUENCE_KEY,
    RpcClient,
    RpcServer,
    _HostDispatcher,
    build_probe_handlers,
)
from repro.network.serialization import (
    HAVE_ZSTD,
    VectorStream,
    deserialize_vector,
    serialize_with_reconstruction,
)
from repro.network.transport import InProcessBackend

FORMATS = [
    "float64",
    "float32",
    "float16",
    "int8",
    "float32+zlib",
    "float16+delta",
    "int8+delta",
    "int8+delta+zlib",
]
DELTA_FORMATS = [spec for spec in FORMATS if "delta" in spec]

#: Offset of the format byte in a blob (after the 4-byte magic) and its flag.
FORMAT_BYTE, DELTA_FLAG = 4, 0x10


def walk(rounds: int = 5, size: int = 5000, seed: int = 0):
    """A slowly moving vector, like a model or a gradient across rounds."""
    rng = np.random.default_rng(seed)
    vector = rng.normal(size=size)
    for iteration in range(rounds):
        yield iteration, vector
        vector = vector + 0.01 * rng.normal(size=size)


def is_delta(blob: bytes) -> bool:
    return bool(blob[FORMAT_BYTE] & DELTA_FLAG)


class TestBothEnds:
    @pytest.mark.parametrize("spec", FORMATS)
    def test_receiver_reconstructs_the_senders_reference_bitwise(self, spec):
        sender, receiver = VectorStream(spec), VectorStream(spec)
        chained = None  # the reference of the plain serialize_with_reconstruction chain
        for iteration, vector in walk():
            blob, sequence = sender.encode(vector, receiver.sequence)
            decoded = receiver.decode(blob, sequence)
            expected_blob, chained = serialize_with_reconstruction(vector, spec, reference=chained)
            assert blob == expected_blob
            assert np.array_equal(decoded, sender.reference)
            assert np.array_equal(decoded, chained)
            assert decoded.dtype == np.float64 and not decoded.flags.writeable
            assert sender.sequence == receiver.sequence == iteration + 1
            assert is_delta(blob) == ("delta" in spec and iteration > 0)

    def test_plain_float64_is_the_identity(self):
        sender, receiver = VectorStream("float64"), VectorStream("float64")
        for _, vector in walk(rounds=2):
            decoded = receiver.decode(*sender.encode(vector, receiver.sequence))
            assert np.array_equal(decoded, vector)


class TestSelfHealing:
    """Whenever the ends disagree the next blob is absolute — its own format
    byte says so — and the stream is delta-encoded again from the one after."""

    @staticmethod
    def exchange(sender, receiver, vector):
        blob, sequence = sender.encode(vector, receiver.sequence)
        decoded = receiver.decode(blob, sequence)
        assert np.array_equal(decoded, sender.reference)
        return blob

    @pytest.mark.parametrize("spec", DELTA_FORMATS)
    def test_fresh_sender_facing_a_live_receiver(self, spec):
        """The host was SIGKILLed: its respawn holds no reference."""
        sender, receiver = VectorStream(spec), VectorStream(spec)
        steps = list(walk(rounds=5))
        for _, vector in steps[:2]:
            self.exchange(sender, receiver, vector)
        sender = VectorStream(spec)
        flags = [is_delta(self.exchange(sender, receiver, v)) for _, v in steps[2:]]
        assert flags == [False, True, True]

    @pytest.mark.parametrize("spec", DELTA_FORMATS)
    def test_receiver_that_missed_a_reply(self, spec):
        sender, receiver = VectorStream(spec), VectorStream(spec)
        steps = list(walk(rounds=6))
        for _, vector in steps[:2]:
            self.exchange(sender, receiver, vector)
        sender.encode(steps[2][1], receiver.sequence)  # never arrives
        assert receiver.sequence == sender.sequence - 1  # ``have`` is now stale
        flags = [is_delta(self.exchange(sender, receiver, v)) for _, v in steps[3:]]
        assert flags == [False, True, True]

    def test_reply_lost_on_a_repull_at_the_same_iteration(self):
        """Iteration 1 is pulled twice and only its first reply arrives: an
        iteration cannot tell the two apart, a per-stream sequence number can."""
        sender, receiver = VectorStream("int8+delta"), VectorStream("int8+delta")
        v0, v1, v2, v3 = (vector for _, vector in walk(rounds=4))
        self.exchange(sender, receiver, v0)  # iteration 0
        self.exchange(sender, receiver, v1)  # iteration 1
        sender.encode(v2, receiver.sequence)  # iteration 1 again; the reply is lost
        blob = self.exchange(sender, receiver, v3)  # iteration 2
        assert not is_delta(blob)
        assert np.array_equal(receiver.reference, serialize_with_reconstruction(v3, "int8")[1])
        assert np.abs(receiver.reference - v3).max() < 0.02

    def test_delta_against_a_reply_the_receiver_lacks_is_refused(self):
        sender, holder, stranger = (VectorStream("int8+delta") for _ in range(3))
        v0, v1 = (vector for _, vector in walk(rounds=2))
        self.exchange(sender, holder, v0)
        blob, sequence = sender.encode(v1, holder.sequence)
        assert is_delta(blob)
        with pytest.raises(SerializationError, match="this end holds 0"):
            stranger.decode(blob, sequence)
        assert stranger.sequence == 0 and stranger.reference is None
        assert np.array_equal(holder.decode(blob, sequence), sender.reference)

    @pytest.mark.parametrize("spec", DELTA_FORMATS)
    def test_size_change(self, spec):
        sender, receiver = VectorStream(spec), VectorStream(spec)
        for _, vector in walk(rounds=2, size=300):
            self.exchange(sender, receiver, vector)
        flags = [
            is_delta(self.exchange(sender, receiver, v)) for _, v in walk(rounds=3, size=301, seed=1)
        ]
        assert flags == [False, True, True]

    def test_fresh_receiver_facing_a_live_sender(self):
        """The coordinator side restarted: it says it holds nothing."""
        sender, receiver = VectorStream("int8+delta"), VectorStream("int8+delta")
        steps = list(walk(rounds=4))
        for _, vector in steps[:2]:
            self.exchange(sender, receiver, vector)
        receiver = VectorStream("int8+delta")
        flags = [is_delta(self.exchange(sender, receiver, v)) for _, v in steps[2:]]
        assert flags == [False, True]

    def test_unavailable_format_is_refused_at_construction(self):
        with pytest.raises(ConfigurationError, match="int9"):
            VectorStream("int9")
        if not HAVE_ZSTD:
            with pytest.raises(ConfigurationError, match="zstd"):
                VectorStream("int8+zstd")


@pytest.fixture
def probe_host():
    """A host dispatcher serving the probe handlers behind a real socket."""
    try:
        server = RpcServer(_HostDispatcher("probe-0", build_probe_handlers("probe-0")))
    except OSError as exc:  # pragma: no cover - sandboxed environments
        pytest.skip(f"sockets unavailable: {exc}")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = RpcClient(("127.0.0.1", server.port))
    yield client
    client.close()
    server.stop()


def pull(client, iteration, vector, **named):
    message = {
        "op": "pull",
        "node": "probe-0",
        "kind": "scale",
        "requester": "tester",
        "iteration": iteration,
        "payload": vector,
        **named,
    }
    return client.call(message)


class TestHostAnswersWhatTheInProcessBackendAnswers:
    @pytest.mark.parametrize("spec", FORMATS[1:])
    def test_same_vectors_on_both_appliers(self, probe_host, spec):
        local = InProcessBackend(wire_format=spec)
        local.register_handler("probe-0", "scale", build_probe_handlers("probe-0")["scale"])
        receiver = VectorStream(spec)
        for iteration, vector in walk(rounds=4, size=600):
            reply = pull(probe_host, iteration, vector, fmt=spec, have=receiver.sequence)
            assert set(reply) == {VECTOR_BLOB_KEY, VECTOR_SEQUENCE_KEY}
            assert is_delta(reply[VECTOR_BLOB_KEY]) == ("delta" in spec and iteration > 0)
            remote = receiver.decode(reply[VECTOR_BLOB_KEY], reply[VECTOR_SEQUENCE_KEY])
            context = RequestContext(requester="tester", iteration=iteration, payload=vector)
            assert np.array_equal(remote, local.invoke("probe-0", "scale", context))

    def test_reply_lost_on_a_repull_at_the_same_iteration(self, probe_host):
        spec, receiver = "int8+delta", VectorStream("int8+delta")
        v0, v1, v2, v3 = (vector for _, vector in walk(rounds=4, size=600))

        def exchange(iteration, vector):
            reply = pull(probe_host, iteration, vector, fmt=spec, have=receiver.sequence)
            receiver.decode(reply[VECTOR_BLOB_KEY], reply[VECTOR_SEQUENCE_KEY])
            return reply[VECTOR_BLOB_KEY]

        exchange(0, v0)
        exchange(1, v1)
        pull(probe_host, 1, v2, fmt=spec, have=receiver.sequence)  # the reply is lost
        assert not is_delta(exchange(2, v3))
        assert np.array_equal(
            receiver.reference, serialize_with_reconstruction(2.0 * v3, "int8")[1]
        )

    def test_unnamed_format_travels_by_the_value_codec_in_float64(self, probe_host):
        vector = np.linspace(-1.0, 1.0, 300)
        reply = pull(probe_host, 0, vector)
        assert isinstance(reply, np.ndarray) and np.array_equal(reply, 2.0 * vector)

    def test_non_vector_results_ignore_the_named_format(self, probe_host):
        reply = probe_host.call(
            {"op": "pull", "kind": "whoami", "requester": "tester", "fmt": "int8", "have": -1}
        )
        assert reply == "probe-0"

    def test_unknown_or_unavailable_format_is_a_typed_error_response(self, probe_host):
        vector = np.linspace(-1.0, 1.0, 300)
        with pytest.raises(ConfigurationError, match="int9"):
            pull(probe_host, 0, vector, fmt="int9", have=-1)
        if not HAVE_ZSTD:
            with pytest.raises(ConfigurationError, match="zstd"):
                pull(probe_host, 0, vector, fmt="int8+zstd", have=-1)
        # An error *response*: the connection was not dropped and still serves.
        assert len(probe_host._free) == 1
        assert probe_host.call({"op": "ping"}) == "pong"
        decoded = deserialize_vector(pull(probe_host, 0, vector, fmt="int8", have=-1)[VECTOR_BLOB_KEY])
        assert np.abs(decoded - 2.0 * vector).max() < 0.01
