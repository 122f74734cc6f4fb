"""Length-prefixed wire protocol for the multi-process socket backend.

This is the byte-level layer under :mod:`repro.network.rpc`: where the
in-process backend passes Python objects between nodes by reference, the
process backend must move every request and reply through a real TCP socket,
which means framing (so a reader knows where one message ends) and a
deterministic value codec (so tensors survive the crossing bit-exactly).

Two layers live here:

* **Framing** — every message is ``MAGIC + u32 length + body``.
  :func:`send_frame` gathers header and body into ``sendmsg`` calls, looping
  over however many short sends the kernel makes; :func:`recv_frame`
  reassembles one from however many partial ``recv`` calls the kernel decides
  to serve (1-byte dribbles included — see ``tests/network/test_wire.py``).
  A clean EOF *between* frames raises :class:`ConnectionClosed`; an EOF
  *inside* a frame (peer died mid-reply) raises the plain
  :class:`~repro.exceptions.CommunicationError` so callers can map it onto
  the crash semantics of the in-process path.
* **Value codec** — :func:`encode_value` / :func:`decode_value` serialize the
  payload vocabulary of the transport (``None``, bool, int, float, str,
  bytes, ``ndarray`` via :mod:`repro.network.serialization`, and lists /
  string-keyed dicts of those, recursively).  The encoding is canonical —
  the same value always produces the same bytes — and arrays always travel
  as bit-exact float64, which is what lets the cross-backend golden suite
  demand byte-identical traces.  A reduced-precision wire format never
  reaches this codec: a reply vector in such a format crosses as the ``bytes``
  blob of a :class:`~repro.network.serialization.VectorStream`.

There is no connection handshake: both ends of every connection are the same
build (the coordinator spawns each host with its own interpreter), a request
names the wire format it wants its reply in, and the protocol version is the
last byte of :data:`FRAME_MAGIC`, checked on every frame — a peer that does
not speak the protocol dies on its first one.

The framing deliberately does not compress or checksum: payloads are trusted
(the coordinator spawned every peer) and the golden suite catches corruption
far more loudly than a CRC would.

A frame body is copied once in user space, on the send side:
:func:`encode_value` joins the tensors' own storage (memoryviews, no
``tobytes()``) into the body, and :func:`send_frame` hands the kernel header
and body side by side instead of concatenating them.  The receive side copies
nothing: each body is ``recv_into``'d straight into a buffer of its own, and
decoded tensors are read-only ``frombuffer`` views of that buffer, which
lives exactly as long as the last of them.
"""

from __future__ import annotations

import socket
import struct
from typing import Any, Dict, List, Union

import numpy as np

from repro.exceptions import CommunicationError
from repro.network.serialization import deserialize_vector, serialize_vector_parts

#: Frame preamble: marks the start of every message on the wire.  Its last
#: byte is the protocol version — bump it on an incompatible framing or codec
#: change and a mismatched peer fails loudly on the first frame it reads.
FRAME_MAGIC = b"GWP1"

#: Frame header: magic + unsigned 32-bit big-endian body length.
_FRAME_HEADER = struct.Struct("!4sI")

#: Upper bound on one frame body (1 GiB) — a corrupted length prefix fails
#: loudly instead of attempting a gigantic allocation.
MAX_FRAME_BYTES = 1 << 30

#: A frame body: what :func:`encode_value` builds or :func:`recv_frame` receives.
Buffer = Union[bytes, memoryview]

_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

#: Value-codec tags (one byte each).
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_ARRAY = b"A"
_TAG_LIST = b"L"
_TAG_DICT = b"M"


class ConnectionClosed(CommunicationError):
    """The peer closed the connection cleanly at a frame boundary."""


# ---------------------------------------------------------------------- #
# Value codec
# ---------------------------------------------------------------------- #
def _encode_into(value: Any, out: List[Any]) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT + _I64.pack(value))
    elif isinstance(value, float):
        out.append(_TAG_FLOAT + _F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR + _U32.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES + _U64.pack(len(value)))
        out.append(bytes(value))
    elif isinstance(value, np.ndarray):
        # Zero-copy: the array's own buffer is spliced into the frame as a
        # memoryview part — no tobytes() materialization.  The single copy
        # happens when the frame is joined/sent.
        parts = serialize_vector_parts(value)
        out.append(_TAG_ARRAY + _U64.pack(sum(len(part) for part in parts)))
        out.extend(parts)
    elif isinstance(value, np.generic):  # numpy scalar: send as plain float/int
        _encode_into(value.item(), out)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST + _U32.pack(len(value)))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT + _U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CommunicationError(
                    f"wire dicts need string keys, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            out.append(_U32.pack(len(raw)))
            out.append(raw)
            _encode_into(item, out)
    else:
        raise CommunicationError(
            f"type {type(value).__name__} is not encodable on the wire"
        )


def encode_value(value: Any) -> bytes:
    """Serialize one payload value into its canonical byte form.

    Array payloads contribute memoryviews of their own storage to the part
    list; the join below is the encode path's single copy.
    """
    out: List[Any] = []
    _encode_into(value, out)
    return b"".join(out)


class _Reader:
    """Cursor over a received frame body, validating every read length.

    Operates on a ``memoryview`` so :meth:`take` never copies; decoded arrays
    are read-only views into the frame body (kept alive through their
    ``base``), which is what makes the decode side of the wire copy-free.
    The frame body must therefore never change: ``bytes``, or the read-only
    buffer :func:`recv_frame` gives each frame.
    """

    __slots__ = ("blob", "view", "offset")

    def __init__(self, blob: Buffer) -> None:
        self.blob = blob
        self.view = memoryview(blob)
        self.offset = 0

    def take(self, count: int) -> memoryview:
        end = self.offset + count
        if end > len(self.view):
            raise CommunicationError("truncated wire value")
        chunk = self.view[self.offset : end]
        self.offset = end
        return chunk

    def decode(self) -> Any:
        tag = bytes(self.take(1))
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_INT:
            return _I64.unpack(self.take(8))[0]
        if tag == _TAG_FLOAT:
            return _F64.unpack(self.take(8))[0]
        if tag == _TAG_STR:
            (length,) = _U32.unpack(self.take(4))
            return bytes(self.take(length)).decode("utf-8")
        if tag == _TAG_BYTES:
            (length,) = _U64.unpack(self.take(8))
            return bytes(self.take(length))
        if tag == _TAG_ARRAY:
            (length,) = _U64.unpack(self.take(8))
            return deserialize_vector(self.take(length))
        if tag == _TAG_LIST:
            (count,) = _U32.unpack(self.take(4))
            return [self.decode() for _ in range(count)]
        if tag == _TAG_DICT:
            (count,) = _U32.unpack(self.take(4))
            result: Dict[str, Any] = {}
            for _ in range(count):
                (key_len,) = _U32.unpack(self.take(4))
                key = bytes(self.take(key_len)).decode("utf-8")
                result[key] = self.decode()
            return result
        raise CommunicationError(f"unknown wire tag {tag!r}")


def decode_value(blob: Buffer) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing garbage.

    Decoded arrays are read-only zero-copy views into ``blob``.
    """
    reader = _Reader(blob)
    value = reader.decode()
    if reader.offset != len(blob):
        raise CommunicationError(
            f"{len(blob) - reader.offset} trailing bytes after wire value"
        )
    return value


# ---------------------------------------------------------------------- #
# Framing
# ---------------------------------------------------------------------- #
def send_frame(sock: socket.socket, body: bytes) -> None:
    """Write one length-prefixed frame without joining header and body.

    Both go out gathered in ``sendmsg`` calls.  A socket with a timeout (every
    ``RpcClient`` connection) sends what fits and returns a short count, so
    the loop resumes from wherever the kernel stopped.
    """
    if len(body) > MAX_FRAME_BYTES:
        raise CommunicationError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    pending = [memoryview(_FRAME_HEADER.pack(FRAME_MAGIC, len(body))), memoryview(body)]
    while pending:
        sent = sock.sendmsg(pending)
        while pending and sent >= len(pending[0]):
            sent -= len(pending.pop(0))
        if pending:
            pending[0] = pending[0][sent:]


def _recv_exact_into(sock: socket.socket, buffer: memoryview, *, at_boundary: bool) -> None:
    """Fill ``buffer`` exactly, looping over however many recvs it takes.

    ``recv_into`` writes straight into the caller's buffer — no per-chunk
    allocations, no join.
    """
    received = 0
    total = len(buffer)
    while received < total:
        count = sock.recv_into(buffer[received:])
        if count == 0:
            if at_boundary and received == 0:
                raise ConnectionClosed("peer closed the connection")
            raise CommunicationError(
                f"connection lost mid-frame ({received} of {total} bytes read)"
            )
        received += count


def recv_frame(sock: socket.socket) -> memoryview:
    """Reassemble one frame body, tolerating arbitrarily fragmented reads.

    The body is received straight into a buffer that belongs to this frame
    alone and is returned read-only: :func:`decode_value` views it without a
    copy, and no later frame can overwrite what an earlier one decoded to.
    """
    header = bytearray(_FRAME_HEADER.size)
    _recv_exact_into(sock, memoryview(header), at_boundary=True)
    magic, length = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise CommunicationError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise CommunicationError(
            f"frame announces {length} bytes, over the {MAX_FRAME_BYTES}-byte limit"
        )
    body = memoryview(np.empty(length, np.uint8))
    _recv_exact_into(sock, body, at_boundary=False)
    return body.toreadonly()


def send_message(sock: socket.socket, message: Any) -> None:
    """Encode ``message`` with the value codec and send it as one frame."""
    send_frame(sock, encode_value(message))


def recv_message(sock: socket.socket) -> Any:
    """Receive one frame and decode it with the value codec."""
    return decode_value(recv_frame(sock))
