"""Vector serialization in the configured wire format.

The paper notes that TensorFlow tensors cannot be serialized directly by
protocol buffers, forcing a context switch between the TensorFlow runtime and
Python plus a memory copy whose overhead is "non-negligible"; PyTorch avoids
the switch.  The functions here perform real byte-level serialization (so
round-trips are verifiable in tests) and expose the size accounting the cost
model needs.

Every blob is self-describing: after the magic comes one **format byte**
whose low nibble selects the base element encoding and whose bit ``0x10``
flags delta encoding:

=========== ====== ==================================================
base        code   payload encoding
=========== ====== ==================================================
``float64`` ``0``  raw little-endian float64 — bit-exact passthrough
``float32`` ``1``  values rounded to float32 (4 B/element)
``float16`` ``2``  values rounded to float16 (2 B/element)
``int8``    ``3``  per-chunk scale/offset quantization: the vector is
                   split into chunks of :data:`INT8_CHUNK_ELEMENTS`
                   elements, each stored as ``(scale, mid)`` float64
                   pairs plus one uint8 code per element; the
                   reconstruction error is bounded by ``scale / 2``
                   per element
=========== ====== ==================================================

With flag ``0x10`` (**delta encoding**) the payload encodes ``vector -
reference`` (e.g. against the previous round's model); the receiver must pass
the same ``reference`` to :func:`deserialize_vector`.  Any other flag bit is
an unknown format byte.

Formats are spelled ``base[+delta]`` — ``"float64"``, ``"float32"``,
``"int8+delta"`` — and parsed by :func:`parse_wire_format` into a
:class:`WireFormat`.  A reply vector crosses every transport backend through
a :class:`VectorStream`, the one place a delta reference is kept and chosen,
held in a :class:`StreamTable`, which encodes a vector once for all its pulls.

The codec is copy-free in both directions where the buffer rules allow it:

* :func:`serialize_vector_parts` emits ``(header, memoryview-of-the-array)``
  for the float64 passthrough without ever calling ``tobytes()`` — the
  array's own buffer goes straight into the socket / frame join.
* :func:`deserialize_vector` returns a **read-only** ``np.frombuffer`` view
  into the received blob by default (the blob stays alive through the view's
  ``base``) for the float64/float32/float16 bases; int8 dequantizes into
  one fresh array, and a caller-supplied ``out`` row (e.g. the preallocated
  :class:`~repro.network.transport.RoundBuffer` row) receives the result in
  the pass that adds a delta's reference, or by one copy.  Pass
  ``copy=True`` for an owned, writable float64 array.

All codec failures raise :class:`~repro.exceptions.SerializationError` (a
:class:`~repro.exceptions.CommunicationError`): bad magic, unknown format
byte, truncated bodies — including bodies whose length is not a multiple of
the element width — and delta blobs decoded without their reference.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, SerializationError

_HEADER = struct.Struct("<Iq")  # (ndim, total elements) followed by dims as int64
_MAGIC = b"GARF"

#: Elements per int8 quantization chunk; each chunk stores a float64
#: ``(scale, mid)`` pair, so the per-element overhead is 16/4096 bytes.
INT8_CHUNK_ELEMENTS = 4096

#: Base format name -> (format code, numpy dtype or None, bytes per element).
_BASES = {
    "float64": (0, np.dtype("<f8"), 8),
    "float32": (1, np.dtype("<f4"), 4),
    "float16": (2, np.dtype("<f2"), 2),
    "int8": (3, None, 1),
}
_BASE_BY_CODE = {code: name for name, (code, _, _) in _BASES.items()}

_FLAG_DELTA = 0x10

BytesLike = Union[bytes, bytearray, memoryview]


@dataclass(frozen=True)
class WireFormat:
    """One payload encoding: base width + optional delta encoding."""

    base: str = "float64"
    delta: bool = False

    @property
    def spec(self) -> str:
        """Canonical string form, e.g. ``"int8+delta"``."""
        return f"{self.base}+delta" if self.delta else self.base

    @property
    def is_plain_float64(self) -> bool:
        """Whether this is the bit-exact passthrough the goldens are locked to."""
        return self.base == "float64" and not self.delta

    def without_delta(self) -> "WireFormat":
        """The same format minus delta encoding (for reference-less paths)."""
        return WireFormat(self.base) if self.delta else self

    def __str__(self) -> str:
        return self.spec


#: The default format: what the codec shipped before it had formats.
PLAIN_FLOAT64 = WireFormat()

FormatLike = Union[str, WireFormat]


def parse_wire_format(spec: FormatLike) -> WireFormat:
    """Parse ``"base[+delta]"`` into a :class:`WireFormat`.

    Raises :class:`~repro.exceptions.ConfigurationError` on unknown tokens.
    """
    if isinstance(spec, WireFormat):
        if spec.base not in _BASES:
            raise ConfigurationError(f"unknown wire format base '{spec.base}'")
        return spec
    if not isinstance(spec, str) or not spec.strip():
        raise ConfigurationError(f"wire format must be a non-empty string, got {spec!r}")
    base: Optional[str] = None
    delta = False
    for token in spec.strip().lower().split("+"):
        token = token.strip()
        if token in _BASES:
            if base is not None:
                raise ConfigurationError(f"wire format '{spec}' names two base widths")
            base = token
        elif token == "delta":
            delta = True
        else:
            raise ConfigurationError(
                f"unknown wire format token '{token}' in '{spec}'; bases: "
                f"{sorted(_BASES)}, modifier: 'delta'"
            )
    if base is None:
        raise ConfigurationError(f"wire format '{spec}' names no base width")
    return WireFormat(base, delta)


def format_byte(fmt: WireFormat) -> int:
    """The one-byte on-wire encoding of a :class:`WireFormat`."""
    return _BASES[fmt.base][0] | (_FLAG_DELTA if fmt.delta else 0)


def format_from_byte(value: int) -> WireFormat:
    """The :class:`WireFormat` a format byte names."""
    base = _BASE_BY_CODE.get(value & 0x0F)
    if base is None or value & ~(0x0F | _FLAG_DELTA):
        raise SerializationError(f"unknown wire format byte 0x{value:02x}")
    return WireFormat(base, bool(value & _FLAG_DELTA))


# ---------------------------------------------------------------------- #
# int8 per-chunk quantization
# ---------------------------------------------------------------------- #
def _int8_nchunks(size: int) -> int:
    return (size + INT8_CHUNK_ELEMENTS - 1) // INT8_CHUNK_ELEMENTS


def _int8_chunk_matrix(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """A zeroed ``(nchunks, INT8_CHUNK_ELEMENTS)`` float64 scratch matrix and
    the flat view of its first ``size`` elements — one row per chunk, the
    ragged last chunk padded out with zeros.

    On this layout every per-chunk step is one broadcast NumPy pass over the
    whole vector.  A Python loop over chunks makes a dozen tiny NumPy calls
    per chunk, each dropping and re-taking the GIL, and two pool threads doing
    that hand it back and forth in a convoy that costs more than the
    arithmetic.  The zero padding is inert: it stays finite through both
    kernels and is sliced off their results.
    """
    matrix = np.zeros((_int8_nchunks(size), INT8_CHUNK_ELEMENTS), dtype=np.float64)
    return matrix, matrix.reshape(-1)[:size]


def _quantize_int8(
    values: np.ndarray, reference: Optional[np.ndarray] = None, reconstruct: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Quantize flat float64 ``values`` (minus ``reference``, for a delta)
    into per-chunk (scale, mid) + uint8 codes.

    Each chunk's values are mapped onto the 256-point grid ``mid + (code -
    127.5) * scale`` with ``scale = (hi - lo) / 255`` — so every element
    reconstructs within ``scale / 2``.  The midpoint/half-range arithmetic is
    ordered to stay finite for any finite inputs (``hi - lo`` may overflow
    float64 where ``hi/2 - lo/2`` cannot).  The operation order — subtract
    ``mid``, divide by ``scale``, add 127.5, round, clip, cast — is frozen:
    it keeps every blob bit-identical to the per-chunk form the format was
    defined by (``tests/network/test_codec_conformance.py`` pins the bytes).
    Neither input is written: handlers serve read-only views of live buffers.

    With ``reconstruct`` the fourth item is what the receiver decodes, built
    in the scratch that already holds the codes as float64 through the
    receiver's own arithmetic (:func:`_int8_reconstruct`, then ``reference
    +``), so it is bit-equal to :func:`deserialize_vector` of the blob;
    otherwise it is ``None``.
    """
    work, flat = _int8_chunk_matrix(values.size)
    if reference is None:
        np.copyto(flat, values)
    else:
        np.subtract(values, reference, out=flat)
    starts = np.arange(0, values.size, INT8_CHUNK_ELEMENTS)
    lo = np.minimum.reduceat(flat, starts)
    hi = np.maximum.reduceat(flat, starts)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise SerializationError(
            "int8 wire format requires finite values; "
            "use float16/float32 for payloads that may overflow"
        )
    half_range = hi / 2.0 - lo / 2.0  # finite for any finite lo <= hi
    mids = lo + half_range
    scales = half_range / 127.5
    constant = ~(scales > 0.0)  # hi == lo, or a range too small to resolve
    work -= mids[:, None]
    work /= np.where(constant, 1.0, scales)[:, None]
    work += 127.5
    np.rint(work, out=work)
    np.clip(work, 0.0, 255.0, out=work)
    codes = work.astype(np.uint8)
    codes[constant] = 0  # reconstruction is exactly mid
    reconstruction = None
    if reconstruct:
        work -= 127.5
        _int8_reconstruct(work, scales, mids)
        reconstruction = flat if reference is None else np.add(reference, flat, out=flat)
    return scales, mids, codes.reshape(-1)[: values.size], reconstruction


def _int8_reconstruct(work: np.ndarray, scales: np.ndarray, mids: np.ndarray) -> None:
    """Turn a chunk matrix of ``code - 127.5`` into values, in place.

    The one copy of this arithmetic: the sender's reconstruction and the
    receiver's decode must be bit-equal, or a delta stream drifts.
    """
    work *= scales[:, None]
    work += mids[:, None]
    constant = scales == 0.0
    work[constant] = mids[constant, None]


def _dequantize_int8(scales: np.ndarray, mids: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_quantize_int8`: a private, writable float64 array."""
    work, flat = _int8_chunk_matrix(codes.size)
    np.subtract(codes, 127.5, out=flat, casting="unsafe")
    _int8_reconstruct(work, scales, mids)
    return flat


def int8_payload_nbytes(size: int) -> int:
    """Payload bytes of an int8-quantized vector of ``size`` elements."""
    return 16 * _int8_nchunks(size) + size


# ---------------------------------------------------------------------- #
# Serialization
# ---------------------------------------------------------------------- #
def serialize_vector_parts(
    vector: np.ndarray,
    fmt: FormatLike = PLAIN_FLOAT64,
    reference: Optional[np.ndarray] = None,
    reconstruction: Optional[List[np.ndarray]] = None,
) -> List[BytesLike]:
    """Serialize an array into ``[header, *payload]`` buffer parts.

    For the default float64 passthrough the payload part is a ``memoryview``
    of the array's own storage (cast to bytes) — zero copies; the parts can
    be written to a socket back to back or joined into one blob, and the
    caller must not mutate the array until the parts have been consumed.
    Non-contiguous or non-float64 input is converted first (one unavoidable
    copy).  Narrow and quantized formats materialize their converted payload
    (the conversion *is* the point).

    With ``fmt.delta``, ``reference`` (the receiver's copy of the previous
    value, same number of elements) must be given and the payload encodes
    ``vector - reference``.

    Given a ``reconstruction`` list, the function appends to it what
    :func:`deserialize_vector` with ``copy=True`` would return for these parts
    — an owned float64 array, bit for bit — computed from the encoded values
    themselves rather than by parsing them back.
    """
    fmt = parse_wire_format(fmt)
    array = np.ascontiguousarray(vector, dtype=np.float64)
    dims = array.shape
    header = _MAGIC + bytes([format_byte(fmt)]) + _HEADER.pack(len(dims), array.size)
    if dims:
        header += struct.pack(f"<{len(dims)}q", *dims)

    values = array.reshape(-1)
    ref: Optional[np.ndarray] = None
    if fmt.delta:
        if reference is None:
            raise SerializationError(
                f"wire format '{fmt}' is delta-encoded and needs a reference"
            )
        ref = np.asarray(reference, dtype=np.float64).reshape(-1)
        if ref.size != values.size:
            raise SerializationError(
                f"delta reference has {ref.size} elements, vector has {values.size}"
            )
        if fmt.base != "int8":  # the int8 kernel subtracts straight into its scratch
            values = values - ref

    keep = reconstruction is not None
    if fmt.base == "int8":
        scales, mids, codes, decoded = _quantize_int8(values, ref, keep)
        payload = [scales, mids, codes]
    else:
        # float64 splices ``values``' own (contiguous) buffer.
        wire = values if fmt.base == "float64" else values.astype(_BASES[fmt.base][1])
        payload = [wire]
        if keep:
            decoded = wire.astype(np.float64) if ref is None else np.add(ref, wire)
    if keep:
        reconstruction.append(decoded.reshape(dims) if dims else decoded)
    return [header, *(memoryview(part).cast("B") for part in payload)]


def serialize_vector(
    vector: np.ndarray,
    fmt: FormatLike = PLAIN_FLOAT64,
    reference: Optional[np.ndarray] = None,
) -> bytes:
    """Serialize an array into one self-describing byte string."""
    return b"".join(serialize_vector_parts(vector, fmt, reference))


def serialize_with_reconstruction(
    vector: np.ndarray,
    fmt: FormatLike = PLAIN_FLOAT64,
    reference: Optional[np.ndarray] = None,
) -> Tuple[bytes, np.ndarray]:
    """Serialize and also return exactly what the receiver will decode.

    Delta senders cache the *reconstruction* (not the raw vector) as the next
    round's reference so both ends of the stream stay bit-identical — the
    standard error-feedback discipline that stops quantization error from
    accumulating across rounds.  A delta format without a ``reference`` (the
    first message of a stream, or a stream restarted after a crash) degrades
    to absolute encoding — the blob's own delta flag tells the receiver
    which one it got.  The reconstruction comes out of the encode itself; the
    sender never decodes its own blob.
    """
    fmt = parse_wire_format(fmt)
    if fmt.delta and reference is None:
        fmt = fmt.without_delta()
    kept: List[np.ndarray] = []
    blob = b"".join(serialize_vector_parts(vector, fmt, reference, kept))
    return blob, kept[0]


def is_stream_vector(value: object) -> bool:
    """Whether ``value`` is what a :class:`VectorStream` carries: a flat
    float64 array (every gradient and model reply).  Anything else crosses a
    backend through the value codec, always in float64."""
    return isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1


class _Crossing(NamedTuple):
    """One trip through the codec: against what, what went in, what came out.

    ``bits`` is the sender's private copy of its input as ``uint64`` (handlers
    serve live views that are overwritten later, and ``-0.0`` must not equal
    ``+0.0``); a receiver keeps ``None`` there."""

    reference: Optional[np.ndarray]
    bits: Optional[np.ndarray]
    blob: BytesLike
    reconstruction: np.ndarray


class _Source:
    """The last crossing of one source, shared by every stream it feeds.  It
    is replaced whole, never edited, so another thread reads one crossing or
    the next, never a mix of the two."""

    last: Optional[_Crossing] = None


class VectorStream:
    """One end of a stream of vectors in one wire format — sender or receiver.

    Both ends hold the same two things: the ``sequence`` number of the last
    reply that crossed (the sender counts its encodes, the receiver keeps the
    number of the reply it last decoded, 0 before the first) and the float64
    ``reference`` the receiver holds after decoding it (the *reconstruction*,
    not the sender's raw vector — encoding the next delta against anything
    else would accumulate quantization drift).  Every backend moves a reply
    through this object, so a format means the same arithmetic wherever the
    handler runs.

    A delta format encodes against the reference only when the receiver says
    it holds exactly that one (``have`` equals the sender's ``sequence``) and
    it still has the vector's size; otherwise — first message, either end
    respawned, a reply lost in flight, a resized model — the blob is
    absolute, which its own format byte says.  The stream heals itself; there
    is no invalidation protocol.  A delta reply is therefore always encoded
    against the reply numbered one before it, and a receiver that holds
    another one refuses it with :class:`~repro.exceptions.SerializationError`.

    Encodes and decodes are memoised per source (see :class:`StreamTable`):
    when this stream's effective reference *is* the one the source last
    crossed against, and the input bits (or, decoding, the blob bytes) equal
    that crossing's, the crossing's blob and reconstruction are taken as they
    are.  The codec is a pure function of (format, input bits, reference
    bits), so a hit is exactly what encoding again would produce — only
    cheaper.  Reconstructions are read-only: several streams may hold one.
    """

    __slots__ = ("fmt", "sequence", "reference", "_source", "_lock")

    def __init__(self, fmt: FormatLike, source: Optional[_Source] = None) -> None:
        self.fmt = parse_wire_format(fmt)
        self.sequence = 0
        self.reference: Optional[np.ndarray] = None
        self._source = _Source() if source is None else source
        self._lock = threading.Lock()  # a retried pull may meet its first attempt

    def encode(self, vector: np.ndarray, have: Optional[int] = None) -> Tuple[bytes, int]:
        """The blob for ``vector`` and its sequence number; :attr:`reference`
        becomes its reconstruction.  ``have`` is the sequence number the
        receiver holds — ``None`` when it shares this process and so holds
        whatever this end last sent."""
        with self._lock:
            reference = self.reference
            stale = not self.fmt.delta or have not in (None, self.sequence)
            if reference is not None and (stale or reference.size != vector.size):
                reference = None
            last, bits = self._source.last, vector.view(np.uint64)
            if last is not None and last.reference is reference and np.array_equal(last.bits, bits):
                blob, reconstruction = last.blob, last.reconstruction
            else:
                blob, reconstruction = serialize_with_reconstruction(vector, self.fmt, reference)
                reconstruction.setflags(write=False)
                self._source.last = _Crossing(reference, bits.copy(), blob, reconstruction)
            self.reference = reconstruction
            self.sequence += 1
            return blob, self.sequence

    def decode(self, blob: BytesLike, sequence: int) -> np.ndarray:
        """The vector in ``blob``, the sender's reply number ``sequence``:
        read-only float64, and the next reference."""
        with self._lock:
            delta = len(blob) > len(_MAGIC) and bool(blob[len(_MAGIC)] & _FLAG_DELTA)
            if delta and sequence != self.sequence + 1:
                raise SerializationError(
                    f"delta reply {sequence} needs reply {sequence - 1}; this end holds {self.sequence}"
                )
            reference = self.reference if delta else None
            last = self._source.last
            if last is not None and last.reference is reference and last.blob == blob:
                reconstruction = last.reconstruction
            else:
                reconstruction = deserialize_vector(blob, copy=True, reference=reference)
                reconstruction.setflags(write=False)
                self._source.last = _Crossing(reference, None, bytes(blob), reconstruction)
            self.reference, self.sequence = reconstruction, sequence
            return reconstruction


class StreamTable:
    """Every stream one end keeps — a node host's or the in-process
    backend's sender ends, the socket backend's receiver ends — keyed
    ``(node, kind, requester, format)``.

    The streams of one *source* ``(node, kind, format)`` share its last
    crossing, so a vector pulled by several requesters is quantized once and
    fanned out, not once per pull (a worker serves each of its gradients to
    every replica).  Streams that shared a crossing share its reconstruction
    as their next reference, which is what lets them keep sharing.  Threads
    racing on one source can at worst both miss and encode the same blob
    twice.
    """

    def __init__(self) -> None:
        self._ends: Dict[Tuple[str, str, str, FormatLike], VectorStream] = {}
        self._sources: Dict[Tuple[str, str, FormatLike], _Source] = {}

    def stream(self, node: str, kind: str, requester: str, fmt: FormatLike) -> VectorStream:
        """The stream for this key, opened in ``fmt`` on first use (racing
        threads are handed the same one by ``setdefault``)."""
        key = (node, kind, requester, fmt)
        stream = self._ends.get(key)
        if stream is None:
            source = self._sources.setdefault((node, kind, fmt), _Source())
            stream = self._ends.setdefault(key, VectorStream(fmt, source))
        return stream

    def forget(self, node: str) -> None:
        """Drop every stream of ``node``: its next reply on each is absolute."""
        self._ends = {key: s for key, s in self._ends.items() if key[0] != node}
        self._sources = {key: s for key, s in self._sources.items() if key[0] != node}


# ---------------------------------------------------------------------- #
# Deserialization
# ---------------------------------------------------------------------- #
def deserialize_vector(
    blob: BytesLike,
    copy: bool = False,
    reference: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Inverse of :func:`serialize_vector`.

    By default the result of a float64/float32/float16 blob is a
    **read-only** ``np.frombuffer`` view into ``blob`` (which is kept alive
    through the array's ``base``) in the wire dtype — decoding touches no
    element; consumers that assign the view into a float64 row (e.g.
    :meth:`RoundBuffer.write_row <repro.network.transport.RoundBuffer.write_row>`)
    widen in place with no intermediate array.  int8 blobs dequantize into
    one fresh float64 array, which is what the caller gets unless ``out`` is
    given.

    * ``copy=True`` — always return an owned, writable float64 array.
    * ``reference`` — required for delta-encoded blobs: the same array the
      sender encoded against; the result is ``reference + decoded_delta``.
    * ``out`` — optional preallocated float64 destination (``out.size`` must
      match); the decoded values are written into it and it is returned
      (reshaped to the wire dims).  Implies an owned result.

    All failures raise :class:`~repro.exceptions.SerializationError`,
    including truncated bodies whose length is not a whole multiple of the
    element width.
    """
    view = memoryview(blob)
    prefix = len(_MAGIC) + 1 + _HEADER.size
    if len(view) < prefix or not view[: len(_MAGIC)] == _MAGIC:
        raise SerializationError("malformed serialized vector (bad magic/header)")
    offset = len(_MAGIC)
    try:
        fmt_value = view[offset]
        offset += 1
        ndim, size = _HEADER.unpack_from(view, offset)
        offset += _HEADER.size
        dims = struct.unpack_from(f"<{ndim}q", view, offset) if ndim else ()
        offset += 8 * ndim
    except struct.error as exc:
        raise SerializationError(f"malformed serialized vector header: {exc}") from exc
    if size < 0 or ndim > 32:
        raise SerializationError("malformed serialized vector (bad header counts)")
    fmt = format_from_byte(fmt_value)

    body = view[offset:]
    if out is not None and (
        out.dtype != np.float64 or out.size != size or not out.flags.c_contiguous
    ):
        raise SerializationError(
            f"out buffer (dtype {out.dtype}, size {out.size}, contiguous "
            f"{out.flags.c_contiguous}) does not fit a contiguous float64 "
            f"vector of {size} elements"
        )

    target = out.reshape(-1) if out is not None else None
    if fmt.base == "int8":
        expected = int8_payload_nbytes(size)
        if len(body) != expected:
            raise SerializationError(
                f"truncated serialized vector ({len(body)} payload bytes, "
                f"expected {expected})"
            )
        nchunks = _int8_nchunks(size)
        scales = np.frombuffer(body, dtype="<f8", count=nchunks)
        mids = np.frombuffer(body, dtype="<f8", count=nchunks, offset=8 * nchunks)
        codes = np.frombuffer(body, dtype=np.uint8, count=size, offset=16 * nchunks)
        decoded: np.ndarray = _dequantize_int8(scales, mids, codes)
        if target is None:
            target = decoded  # private scratch: finish in place, hand it over
    else:
        dtype = _BASES[fmt.base][1]
        expected = size * dtype.itemsize
        if len(body) != expected:
            raise SerializationError(
                f"truncated serialized vector ({len(body)} payload bytes, "
                f"expected {expected} = {size} x {dtype.itemsize})"
            )
        decoded = np.frombuffer(body, dtype=dtype)
        if not (copy or fmt.delta or out is not None):
            # frombuffer over an immutable blob is already read-only; over a
            # writable one force it, so no consumer can write through into a
            # transport buffer.
            decoded = decoded.view()
            decoded.setflags(write=False)
            return decoded.reshape(dims) if dims else decoded

    # One pass lands the result in ``target``: the caller's row, the int8
    # scratch, or (``None``) a fresh float64 array.
    if fmt.delta:
        if reference is None:
            raise SerializationError(
                "blob is delta-encoded; deserialize_vector needs the reference "
                "the sender encoded against"
            )
        ref = np.asarray(reference, dtype=np.float64).reshape(-1)
        if ref.size != size:
            raise SerializationError(
                f"delta reference has {ref.size} elements, blob has {size}"
            )
        result = np.add(ref, decoded, out=target)
    elif target is None:
        result = np.array(decoded, dtype=np.float64)
    else:
        result = target
        if result is not decoded:
            np.copyto(result, decoded, casting="unsafe")
    return result.reshape(dims) if dims else result


# ---------------------------------------------------------------------- #
# Size accounting
# ---------------------------------------------------------------------- #
def _framed_nbytes(dimension: int, base: str) -> int:
    """Framed length of a 1-D vector in ``base``."""
    header = len(_MAGIC) + 1 + _HEADER.size + 8  # magic, format byte, counts, 1 dim
    if base == "int8":
        return header + int8_payload_nbytes(dimension)
    return header + dimension * _BASES[base][2]


def serialized_nbytes(dimension: int, fmt: FormatLike = PLAIN_FLOAT64) -> int:
    """Exact framed length of a serialized 1-D vector of ``dimension`` elements.

    The length of ``serialize_vector(np.zeros(dimension), fmt)`` (int8
    includes its per-chunk scale/mid pairs).
    """
    return _framed_nbytes(dimension, parse_wire_format(fmt).base)


def message_nbytes(dimension: int, fmt: FormatLike = PLAIN_FLOAT64) -> int:
    """What one ``dimension``-element vector message costs: the one byte count.

    The framed header plus the payload at the format's priced width.  A
    float64 base is priced at the paper's float32 width (4 B/element, the
    tensors its figures ship); float32, float16 and int8 at their own framing
    (int8 with its chunk layout).  Delta encoding is never priced.  The transport charges every vector reply, gradient-request
    payload and shard slice at this size, the ledger folds it, and
    :meth:`~repro.network.cost.CostModel.message_bytes` prices it.
    """
    base = parse_wire_format(fmt).base
    return _framed_nbytes(dimension, "float32" if base == "float64" else base)
