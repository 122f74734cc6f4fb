"""Framing and value-codec tests for the socket backend's wire protocol.

The conformance suite (``test_rpc_conformance.py``) exercises the protocol
end to end through real subprocesses; this module pins the byte-level layer
in isolation — partial reads, truncation, canonical encodings, and the size
extremes (empty tensors and >1 MiB payloads) the satellite checklist names.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import CommunicationError, SerializationError
from repro.network import wire
from repro.network.serialization import (
    deserialize_vector,
    parse_wire_format,
    serialize_vector,
)
from repro.network.wire import (
    ConnectionClosed,
    decode_value,
    encode_value,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
)


@pytest.fixture
def sock_pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


# ---------------------------------------------------------------------- #
# Value codec
# ---------------------------------------------------------------------- #
class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**40,
            -(2**40),
            0.0,
            3.141592653589793,
            float("inf"),
            "",
            "hello",
            "ünïcodé ✓",
            b"",
            b"\x00\xff" * 33,
            [],
            [1, "two", None, 4.0],
            {},
            {"a": 1, "b": [True, {"c": b"x"}]},
        ],
    )
    def test_round_trip_plain_values(self, value):
        assert decode_value(encode_value(value)) == value

    @pytest.mark.parametrize(
        "shape",
        [
            (0,),  # zero-byte tensor body
            (1,),
            (3, 4),
            (200_000,),  # 1.6 MB of float64 — over the 1 MiB satellite bar
        ],
    )
    def test_round_trip_tensors(self, shape):
        rng = np.random.default_rng(7)
        array = rng.normal(size=shape)
        decoded = decode_value(encode_value(array))
        assert decoded.shape == array.shape
        assert np.array_equal(decoded, array)  # bit-exact, no tolerance

    def test_round_trip_nested_tensor_structures(self):
        value = {
            "gradients": [np.arange(5, dtype=np.float64), np.zeros(0)],
            "meta": {"iteration": 3, "source": "worker-1"},
        }
        decoded = decode_value(encode_value(value))
        assert np.array_equal(decoded["gradients"][0], value["gradients"][0])
        assert decoded["gradients"][1].size == 0
        assert decoded["meta"] == value["meta"]

    def test_tuples_decode_as_lists(self):
        assert decode_value(encode_value((1, 2, 3))) == [1, 2, 3]

    def test_numpy_scalars_decode_as_python_scalars(self):
        assert decode_value(encode_value(np.float64(2.5))) == 2.5
        assert decode_value(encode_value(np.int64(7))) == 7

    def test_encoding_is_canonical(self):
        value = {"b": [1.0, None], "a": np.arange(4, dtype=np.float64)}
        assert encode_value(value) == encode_value(value)

    def test_rejects_non_string_dict_keys(self):
        with pytest.raises(CommunicationError, match="string keys"):
            encode_value({1: "x"})

    def test_rejects_unencodable_types(self):
        with pytest.raises(CommunicationError, match="not encodable"):
            encode_value(object())

    def test_rejects_trailing_garbage(self):
        with pytest.raises(CommunicationError, match="trailing"):
            decode_value(encode_value(1) + b"junk")

    def test_rejects_unknown_tag(self):
        with pytest.raises(CommunicationError, match="unknown wire tag"):
            decode_value(b"Z")

    def test_rejects_truncated_value(self):
        blob = encode_value("hello world")
        with pytest.raises(CommunicationError, match="truncated"):
            decode_value(blob[:-3])


# ---------------------------------------------------------------------- #
# Framing
# ---------------------------------------------------------------------- #
def _send_in_background(target, *args):
    """Run a send on a thread: payloads larger than the kernel socket buffer
    would otherwise deadlock a single-threaded send-then-recv test."""
    thread = threading.Thread(target=target, args=args)
    thread.start()
    return thread


class _CountingSocket(socket.socket):
    """A socket that records the byte count each ``sendmsg`` call reports."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []

    def sendmsg(self, *args):
        count = super().sendmsg(*args)
        self.sent.append(count)
        return count


class TestFraming:
    @pytest.mark.parametrize("body", [b"", b"x", b"payload" * 1000, bytes(2 * 1024 * 1024)])
    def test_frame_round_trip(self, sock_pair, body):
        left, right = sock_pair
        writer = _send_in_background(send_frame, left, body)
        try:
            assert recv_frame(right) == body
        finally:
            writer.join()

    def test_multiple_frames_stay_delimited(self, sock_pair):
        left, right = sock_pair
        bodies = [b"", b"one", b"two" * 500, b""]
        for body in bodies:
            send_frame(left, body)
        for body in bodies:
            assert recv_frame(right) == body

    def test_partial_reads_reassemble(self, sock_pair):
        """recv_frame must tolerate a sender that dribbles one byte at a time."""
        left, right = sock_pair
        body = np.arange(257, dtype=np.float64).tobytes()
        frame = wire._FRAME_HEADER.pack(wire.FRAME_MAGIC, len(body)) + body

        def dribble():
            for i in range(len(frame)):
                left.sendall(frame[i : i + 1])

        writer = threading.Thread(target=dribble)
        writer.start()
        try:
            assert recv_frame(right) == body
        finally:
            writer.join()

    def test_clean_eof_between_frames(self, sock_pair):
        left, right = sock_pair
        send_frame(left, b"last")
        left.close()
        assert recv_frame(right) == b"last"
        with pytest.raises(ConnectionClosed):
            recv_frame(right)

    def test_eof_mid_frame_is_a_crash_not_a_close(self, sock_pair):
        """A peer dying mid-reply surfaces as CommunicationError, never as a
        clean close — this is what the RPC client maps onto NodeCrashedError."""
        left, right = sock_pair
        frame = wire._FRAME_HEADER.pack(wire.FRAME_MAGIC, 100) + b"only half the bo"
        left.sendall(frame)
        left.close()
        with pytest.raises(CommunicationError, match="mid-frame") as excinfo:
            recv_frame(right)
        assert not isinstance(excinfo.value, ConnectionClosed)

    def test_rejects_bad_magic(self, sock_pair):
        left, right = sock_pair
        left.sendall(struct.pack("!4sI", b"EVIL", 4) + b"body")
        with pytest.raises(CommunicationError, match="magic"):
            recv_frame(right)

    def test_rejects_another_protocol_version(self, sock_pair):
        """The version is the magic's last byte and every frame checks it: a
        peer built against the next protocol dies on its first frame."""
        left, right = sock_pair
        assert wire.FRAME_MAGIC == b"GWP1"
        left.sendall(struct.pack("!4sI", b"GWP2", 4) + b"body")
        with pytest.raises(CommunicationError, match="magic"):
            recv_frame(right)

    def test_rejects_oversized_frame_announcement(self, sock_pair):
        left, right = sock_pair
        left.sendall(struct.pack("!4sI", wire.FRAME_MAGIC, wire.MAX_FRAME_BYTES + 1))
        with pytest.raises(CommunicationError, match="limit"):
            recv_frame(right)

    def test_send_rejects_oversized_body(self, sock_pair):
        left, _ = sock_pair

        class _Huge(bytes):
            def __len__(self):
                return wire.MAX_FRAME_BYTES + 1

        with pytest.raises(CommunicationError, match="limit"):
            send_frame(left, _Huge())

    def test_short_sends_resume_where_the_kernel_stopped(self):
        """A socket with a timeout (as every RpcClient socket has) returns
        short ``sendmsg`` counts once its small send buffer is full: a
        multi-MB frame and the small one behind it still arrive whole and in
        order."""
        left, right = socket.socketpair()
        sender = _CountingSocket(fileno=left.detach())
        sender.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        sender.settimeout(10.0)
        right.settimeout(10.0)
        big = np.random.default_rng(3).bytes(4 * 1024 * 1024)
        small = b"the frame behind it"

        def send_both():
            send_frame(sender, big)
            send_frame(sender, small)

        writer = _send_in_background(send_both)
        try:
            time.sleep(0.05)  # a slow reader: the sender meets a full buffer first
            assert recv_frame(right) == big
            assert recv_frame(right) == small
        finally:
            writer.join(timeout=10.0)
            sender.close()
            right.close()
        assert not writer.is_alive()
        assert len(sender.sent) > 2  # short counts happened, and were resumed
        assert sum(sender.sent) == 2 * wire._FRAME_HEADER.size + len(big) + len(small)

    def test_message_round_trip_with_tensors(self, sock_pair):
        left, right = sock_pair
        message = {
            "op": "pull",
            "payload": np.linspace(0, 1, 150_000),  # > 1 MiB on the wire
            "iteration": 12,
        }
        writer = _send_in_background(send_message, left, message)
        try:
            received = recv_message(right)
        finally:
            writer.join()
        assert received["op"] == "pull"
        assert received["iteration"] == 12
        assert np.array_equal(received["payload"], message["payload"])


# ---------------------------------------------------------------------- #
# Copy budget: one user-space copy of a body on send, none on receive
# ---------------------------------------------------------------------- #
class TestCopyBudget:
    """Peak traced allocation while one 30 730-element float64 message (the
    msmw-process-f64 model size) crosses a socket, against its body size."""

    PAYLOAD = np.random.default_rng(5).normal(size=30_730)

    def message(self):
        return {"op": "pull", "iteration": 3, "payload": self.PAYLOAD}

    def test_send_side_allocates_the_body_once(self, sock_pair):
        left, right = sock_pair
        total = wire._FRAME_HEADER.size + len(encode_value(self.message()))
        sink = memoryview(bytearray(total))

        def drain():
            received = 0
            while received < total:
                received += right.recv_into(sink[received:])

        reader = _send_in_background(drain)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            body = encode_value(self.message())
            send_frame(left, body)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert peak <= 1.1 * len(body), f"send side peaked at {peak / len(body):.2f}x the body"

    def test_receive_side_decodes_in_the_frame_buffer(self, sock_pair):
        left, right = sock_pair
        body = encode_value(self.message())
        writer = _send_in_background(send_frame, left, body)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            received = recv_message(right)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            writer.join(timeout=10.0)
        assert not writer.is_alive()
        assert peak <= 1.1 * len(body), f"receive side peaked at {peak / len(body):.2f}x the body"
        assert received["payload"].tobytes() == self.PAYLOAD.tobytes()


# ---------------------------------------------------------------------- #
# Truncated vector bodies (the satellite bugfix: typed errors, not ValueError)
# ---------------------------------------------------------------------- #
class TestTruncatedVectorBodies:
    """Every malformed body must raise SerializationError — the typed codec
    failure — never a bare ValueError out of numpy's frombuffer."""

    FORMATS = ["float64", "float32", "float16", "int8", "float32+zlib"]

    @pytest.mark.parametrize("spec", FORMATS)
    def test_off_by_one_byte_short(self, spec):
        blob = serialize_vector(np.linspace(0, 1, 100), spec)
        with pytest.raises(SerializationError):
            deserialize_vector(blob[:-1])

    @pytest.mark.parametrize("spec", FORMATS)
    def test_off_by_one_byte_long(self, spec):
        blob = serialize_vector(np.linspace(0, 1, 100), spec)
        with pytest.raises(SerializationError):
            deserialize_vector(blob + b"\x00")

    @pytest.mark.parametrize("spec", ["float64", "float32", "float16", "int8"])
    def test_empty_body_with_nonempty_header(self, spec):
        """A header announcing 100 elements over zero payload bytes."""
        blob = serialize_vector(np.linspace(0, 1, 100), spec)
        fmt = parse_wire_format(spec)
        header_len = len(blob) - (
            100 * fmt.bytes_per_element + (16 if fmt.base == "int8" else 0)
        )
        with pytest.raises(SerializationError, match="truncated"):
            deserialize_vector(blob[:header_len])

    def test_non_multiple_of_element_width(self):
        """A float64 body of 37 bytes is not a whole number of elements."""
        blob = serialize_vector(np.linspace(0, 1, 100))
        with pytest.raises(SerializationError, match="truncated"):
            deserialize_vector(blob[: len(blob) - 800 + 37])

    def test_empty_blob(self):
        with pytest.raises(SerializationError):
            deserialize_vector(b"")

    def test_serialization_error_is_a_communication_error(self):
        """Callers catching the transport's CommunicationError keep working."""
        assert issubclass(SerializationError, CommunicationError)
