"""Property-based codec suite for the negotiated wire formats.

Hypothesis sweeps every format over sizes from 0 bytes to beyond 1 MiB and
both decode modes (``copy=True`` / ``copy=False``), pinning the invariants
the satellite checklist names: round-trip identity for the exact formats,
quantization error within ``scale / 2`` per element for int8, delta
encode/decode identity when the reference model is unchanged, and the
zero-copy contract of ``copy=False`` views.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ConfigurationError, SerializationError
from repro.network.serialization import (
    INT8_CHUNK_ELEMENTS,
    deserialize_vector,
    format_byte,
    format_from_byte,
    parse_wire_format,
    serialize_vector,
    serialize_with_reconstruction,
    serialized_nbytes,
)

ALL_FORMATS = [
    "float64",
    "float32",
    "float16",
    "int8",
    "float64+delta",
    "float32+delta",
    "float16+delta",
    "int8+delta",
]

#: Element values bounded to float16's finite range so the narrow formats
#: never overflow to inf (a separate test pins that behaviour for int8).
FINITE_F16 = st.floats(
    min_value=-60000.0, max_value=60000.0, allow_nan=False, allow_infinity=False
)

#: Sizes cross the interesting boundaries: empty, one element, one int8
#: chunk +- 1, and > 1 MiB of float64 (150_000 * 8 bytes).
SIZES = st.sampled_from(
    [0, 1, 3, 255, INT8_CHUNK_ELEMENTS - 1, INT8_CHUNK_ELEMENTS + 1, 150_000]
)


def vectors(sizes=SIZES):
    return arrays(dtype=np.float64, shape=sizes, elements=FINITE_F16)


@settings(max_examples=25, deadline=None)
@given(vector=vectors(), spec=st.sampled_from(ALL_FORMATS), copy=st.booleans())
def test_round_trip_tolerance(vector, spec, copy):
    """Every format reconstructs within its documented error bound."""
    fmt = parse_wire_format(spec)
    reference = np.zeros(vector.size) if fmt.delta else None
    blob = serialize_vector(vector, fmt, reference=reference)
    decoded = np.asarray(
        deserialize_vector(blob, copy=copy, reference=reference), dtype=np.float64
    )
    assert decoded.size == vector.size
    if fmt.base == "float64":
        assert np.array_equal(decoded, vector)
    elif fmt.base == "float32":
        assert np.array_equal(decoded, vector.astype(np.float32).astype(np.float64))
    elif fmt.base == "float16":
        assert np.array_equal(decoded, vector.astype(np.float16).astype(np.float64))
    else:  # int8: per-chunk bound checked in its own property below
        if vector.size:
            span = vector.max() - vector.min()
            assert np.abs(decoded - vector).max() <= span / 255.0 * 1.0000001 + 1e-12


@settings(max_examples=25, deadline=None)
@given(vector=vectors())
def test_int8_error_within_half_scale_per_chunk(vector):
    """int8 reconstruction error is bounded by scale/2 within every chunk."""
    blob = serialize_vector(vector, "int8")
    decoded = deserialize_vector(blob)
    for start in range(0, vector.size, INT8_CHUNK_ELEMENTS):
        chunk = vector[start : start + INT8_CHUNK_ELEMENTS]
        lo, hi = float(chunk.min()), float(chunk.max())
        scale = (hi / 2.0 - lo / 2.0) / 127.5
        bound = scale / 2.0 if scale > 0.0 else 0.0
        err = np.abs(decoded[start : start + INT8_CHUNK_ELEMENTS] - chunk).max()
        assert err <= bound * 1.0000001 + 1e-300, (start, err, bound)


@settings(max_examples=25, deadline=None)
@given(
    vector=vectors(),
    spec=st.sampled_from(["float64+delta", "float32+delta", "float16+delta", "int8+delta"]),
)
def test_delta_identity_when_reference_unchanged(vector, spec):
    """Encoding a vector against itself decodes back to exactly that vector.

    This is the steady-state of a converged model stream: when the sender's
    reconstruction already equals the value being sent, the delta is exactly
    zero and the round trip is the identity for every base — including the
    quantized ones, whose grids always contain 0.
    """
    blob = serialize_vector(vector, spec, reference=vector)
    decoded = deserialize_vector(blob, reference=vector)
    assert np.array_equal(np.asarray(decoded, dtype=np.float64), vector)


@settings(max_examples=25, deadline=None)
@given(vector=vectors(), spec=st.sampled_from(ALL_FORMATS))
def test_reconstruction_matches_receiver_decode(vector, spec):
    """serialize_with_reconstruction returns exactly what the receiver gets."""
    reference = np.zeros(vector.size)
    blob, reconstruction = serialize_with_reconstruction(vector, spec, reference=reference)
    decoded = deserialize_vector(blob, copy=True, reference=reference)
    assert np.array_equal(reconstruction, np.asarray(decoded, dtype=np.float64))


@settings(max_examples=20, deadline=None)
@given(vector=vectors(st.sampled_from([1, 255, 150_000])), spec=st.sampled_from(ALL_FORMATS))
def test_copy_false_views_are_read_only(vector, spec):
    fmt = parse_wire_format(spec)
    reference = np.zeros(vector.size) if fmt.delta else None
    blob = serialize_vector(vector, fmt, reference=reference)
    view = deserialize_vector(blob, copy=False, reference=reference)
    if fmt.base != "int8" and not fmt.delta:
        # Plain narrow formats decode as frombuffer views over the blob.
        assert not view.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            view[0] = 1.0


@settings(max_examples=20, deadline=None)
@given(vector=vectors(), spec=st.sampled_from(["float64", "float32", "float16", "int8"]))
def test_framed_sizes_match_accounting(vector, spec):
    """serialized_nbytes predicts the exact framed length (the cost model's
    number) for every base and size."""
    blob = serialize_vector(vector, spec)
    assert len(blob) == serialized_nbytes(vector.size, fmt=spec)


@settings(max_examples=20, deadline=None)
@given(vector=vectors(st.sampled_from([1, INT8_CHUNK_ELEMENTS + 1])))
def test_out_decode_equals_fresh_decode(vector):
    """Dequantizing into a preallocated row matches the fresh-array decode."""
    blob = serialize_vector(vector, "int8")
    fresh = deserialize_vector(blob, copy=True)
    row = np.empty(vector.size, dtype=np.float64)
    returned = deserialize_vector(blob, out=row)
    assert np.array_equal(row, np.asarray(fresh))
    assert returned.base is row or returned is row


def test_int8_rejects_non_finite():
    with pytest.raises(SerializationError, match="finite"):
        serialize_vector(np.asarray([1.0, np.inf]), "int8")


def test_delta_decode_without_reference_raises():
    blob = serialize_vector(np.arange(5.0), "float64+delta", reference=np.zeros(5))
    with pytest.raises(SerializationError, match="reference"):
        deserialize_vector(blob)


@pytest.mark.parametrize("spec", ALL_FORMATS)
def test_a_format_is_a_base_and_a_delta_flag(spec):
    """Every spec round-trips through its canonical string and its byte."""
    fmt = parse_wire_format(spec)
    assert fmt.spec == spec
    assert format_from_byte(format_byte(fmt)) == fmt


@pytest.mark.parametrize("spec, token", [("int8+zlib", "zlib"), ("float32+zstd", "zstd"), ("int9", "int9")])
def test_an_unknown_token_is_a_configuration_error_naming_it(spec, token):
    with pytest.raises(ConfigurationError, match=f"'{token}'"):
        parse_wire_format(spec)


@pytest.mark.parametrize("flag", [0x20, 0x40, 0x80])
def test_an_unknown_flag_bit_is_an_unknown_format_byte(flag):
    blob = bytearray(serialize_vector(np.arange(4.0), "float32"))
    blob[4] |= flag  # the format byte follows the 4-byte magic
    with pytest.raises(SerializationError, match="unknown wire format byte"):
        deserialize_vector(bytes(blob))
