"""Pinned conformance vectors for the lossy codecs: int8, float32, float16.

The golden scenario traces are all float64, so nothing there notices a
one-ulp change in the quantizer or in a narrowing cast.  This suite pins
SHA-256 digests of the exact bytes ``serialize_vector`` emits and of the
exact float64 values ``serialize_with_reconstruction`` hands back, for
deterministic vectors across the chunk boundaries, three magnitudes and the
int8 format family, plus the corners the per-chunk arithmetic special-cases
(constant chunks, an all-zero tail, the float64 extremes, a range too small
for a non-zero scale, signed zeros).  The int8 digests in
``codec_conformance.json`` were generated by the per-chunk implementation
this kernel replaced; run this file as a script to regenerate them (only
when the wire format itself is meant to change).

The same cases are also checked against :func:`reference_quantize` /
:func:`reference_dequantize` — the per-chunk loops kept here as the
readable specification of the arithmetic and its operation order.

The float32 and float16 bases (plain and delta) are pinned the same way, on
the magnitudes each width represents and on the corners a narrowing cast
decides (rounding ties, subnormals, signed zeros, the empty vector), and
checked against IEEE round-to-nearest-even: no value of the wire width lies
closer, a tie goes to the even significand, and the sign survives.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import SerializationError
from repro.network.serialization import (
    INT8_CHUNK_ELEMENTS,
    deserialize_vector,
    serialize_vector,
    serialize_with_reconstruction,
    serialized_nbytes,
)
from repro.network.transport import RoundBuffer

FIXTURE = Path(__file__).with_name("codec_conformance.json")

SIZES = (0, 1, 4095, 4096, 4097, 7683, 8192, 30_730)
SCALES = (1e-9, 1.0, 1e6)
FORMATS = ("int8", "int8+delta")
#: float16 overflows to infinity at 1e6, so it is pinned on the two
#: magnitudes it represents.
FLOAT_SCALES = {"float32": SCALES, "float16": (1e-9, 1.0)}
FLOAT_FORMATS = ("float32", "float32+delta", "float16", "float16+delta")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def uniform(size: int, seed: int) -> np.ndarray:
    """Deterministic values in [-0.5, 0.5): splitmix64 in exact integer
    arithmetic, so the vectors do not depend on NumPy's generator streams."""
    x = (np.arange(size, dtype=np.uint64) + np.uint64(seed + 1)) * _GOLDEN
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53 - 0.5


Case = Tuple[str, np.ndarray, str, Optional[np.ndarray]]


def cases() -> Iterator[Case]:
    """``(name, vector, format, reference)`` for every pinned vector."""
    for size in SIZES:
        for index, scale in enumerate(SCALES):
            reference = uniform(size, 1000 * index + 1) * scale
            vector = reference + uniform(size, 1000 * index + 2) * (scale * 0.05)
            for spec in FORMATS:
                yield (
                    f"d{size}-s{scale:g}-{spec}",
                    vector,
                    spec,
                    reference if "delta" in spec else None,
                )
    chunk = INT8_CHUNK_ELEMENTS
    constant_first = uniform(chunk + 904, 7)
    constant_first[:chunk] = 3.25
    zero_tail = uniform(chunk + 50, 8)
    zero_tail[chunk:] = 0.0
    extremes = uniform(2 * chunk + 3, 9) * 1e300
    extremes[[0, chunk + 1, 2 * chunk]] = 1.7e308
    extremes[[5, chunk + 9]] = -1.7e308
    # hi != lo, yet (hi/2 - lo/2) / 127.5 underflows to a zero scale.
    vanishing = np.arange(chunk + 10, dtype=np.float64) % 7 * 5e-324
    signed_zeros = np.where(np.arange(chunk + 6) % 3 == 0, -0.0, 0.0)
    negative_zeros = np.full(chunk + 6, -0.0)
    for name, vector in (
        ("constant-first-chunk", constant_first),
        ("zero-tail-chunk", zero_tail),
        ("extreme-endpoints", extremes),
        ("vanishing-range", vanishing),
        ("signed-zeros", signed_zeros),
        ("negative-zeros", negative_zeros),
    ):
        yield f"{name}-int8", vector, "int8", None
        if name != "extreme-endpoints":  # the delta itself would overflow
            yield f"{name}-int8+delta", vector, "int8+delta", uniform(vector.size, 11)
    yield from float_cases()


def float_cases() -> Iterator[Case]:
    """The pinned vectors of the float32 and float16 bases."""
    for size in (1, 7683):
        for spec in FLOAT_FORMATS:
            for scale in FLOAT_SCALES[spec.split("+")[0]]:
                index = SCALES.index(scale)
                reference = uniform(size, 1000 * index + 1) * scale
                vector = reference + uniform(size, 1000 * index + 2) * (scale * 0.05)
                yield (
                    f"d{size}-s{scale:g}-{spec}",
                    vector,
                    spec,
                    reference if "delta" in spec else None,
                )
    for base in ("float32", "float16"):
        dtype = np.dtype(f"<f{4 if base == 'float32' else 2}")
        # Exactly halfway between two neighbours of the wire width.
        lower = (uniform(1030, 12) + 1.5).astype(dtype)
        ties = (lower.astype(np.float64) + np.nextafter(lower, dtype.type(np.inf))) / 2.0
        ties[1::2] *= -1.0
        tiny = float(np.finfo(dtype).smallest_subnormal)
        subnormals = uniform(1030, 13) * (8.0 * tiny)
        signed_zeros = np.where(np.arange(1030) % 3 == 0, -0.0, 0.0)
        for name, vector in (
            ("empty", np.zeros(0)),
            ("rounding-ties", ties),
            ("subnormals", subnormals),
            ("signed-zeros", signed_zeros),
        ):
            yield f"{name}-{base}", vector, base, None
            yield f"{name}-{base}+delta", vector, f"{base}+delta", uniform(vector.size, 14)


def sha(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def digests(vector: np.ndarray, spec: str, reference: Optional[np.ndarray]) -> Dict[str, str]:
    blob, reconstruction = serialize_with_reconstruction(vector, spec, reference=reference)
    assert blob == serialize_vector(vector, spec, reference=reference)
    return {"blob": sha(blob), "reconstruction": sha(reconstruction.tobytes())}


@functools.lru_cache(maxsize=None)
def load_fixture() -> Dict[str, Dict[str, str]]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------- #
# The per-chunk form: the specification the whole-vector kernels must match
# ---------------------------------------------------------------------- #
def reference_quantize(values: np.ndarray):
    size = values.size
    nchunks = (size + INT8_CHUNK_ELEMENTS - 1) // INT8_CHUNK_ELEMENTS
    scales = np.empty(nchunks, dtype=np.float64)
    mids = np.empty(nchunks, dtype=np.float64)
    codes = np.empty(size, dtype=np.uint8)
    for index in range(nchunks):
        start = index * INT8_CHUNK_ELEMENTS
        chunk = values[start : start + INT8_CHUNK_ELEMENTS]
        lo = float(chunk.min())
        hi = float(chunk.max())
        half_range = hi / 2.0 - lo / 2.0
        mid = lo + half_range
        scale = half_range / 127.5
        scales[index] = scale
        mids[index] = mid
        if scale > 0.0:
            quantized = np.rint((chunk - mid) / scale + 127.5)
            codes[start : start + chunk.size] = np.clip(quantized, 0.0, 255.0).astype(np.uint8)
        else:
            codes[start : start + chunk.size] = 0
    return scales, mids, codes


def reference_dequantize(scales: np.ndarray, mids: np.ndarray, codes: np.ndarray) -> np.ndarray:
    result = np.empty(codes.size, dtype=np.float64)
    for index in range(scales.size):
        start = index * INT8_CHUNK_ELEMENTS
        chunk = result[start : start + INT8_CHUNK_ELEMENTS]
        np.subtract(codes[start : start + INT8_CHUNK_ELEMENTS], 127.5, out=chunk, casting="unsafe")
        if scales[index] != 0.0:
            chunk *= scales[index]
            chunk += mids[index]
        else:
            chunk[...] = mids[index]
    return result


def reference_blob_and_reconstruction(vector, reference):
    values = vector if reference is None else vector - reference
    scales, mids, codes = reference_quantize(values)
    decoded = reference_dequantize(scales, mids, codes)
    if reference is not None:
        decoded = reference + decoded
    return scales.tobytes() + mids.tobytes() + codes.tobytes(), decoded


def payload_of(blob: bytes) -> bytes:
    return blob[serialized_nbytes(0, fmt="int8") :]  # header of a 1-D vector


# ---------------------------------------------------------------------- #
# Tests
# ---------------------------------------------------------------------- #
ALL_CASES = list(cases())
INT8_CASES = [case for case in ALL_CASES if case[2].startswith("int8")]
FLOAT_CASES = [case for case in ALL_CASES if case[2].startswith("float")]


def test_fixture_names_exactly_the_generated_cases():
    assert sorted(load_fixture()) == sorted(name for name, *_ in ALL_CASES)


@pytest.mark.parametrize("name,vector,spec,reference", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_blob_and_reconstruction_match_the_pinned_digests(name, vector, spec, reference):
    before = vector.tobytes()
    assert digests(vector, spec, reference) == load_fixture()[name]
    assert vector.tobytes() == before


@pytest.mark.parametrize("name,vector,spec,reference", INT8_CASES, ids=[c[0] for c in INT8_CASES])
def test_kernels_match_the_per_chunk_form(name, vector, spec, reference):
    blob, reconstruction = serialize_with_reconstruction(vector, spec, reference=reference)
    payload, expected = reference_blob_and_reconstruction(vector, reference)
    assert payload_of(blob) == payload
    assert reconstruction.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")  # scale * 127.5 near the float64 maximum
@settings(max_examples=40, deadline=None)
@given(
    vector=arrays(
        dtype=np.float64,
        shape=st.sampled_from([1, 17, INT8_CHUNK_ELEMENTS, INT8_CHUNK_ELEMENTS + 3, 9000]),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    ),
    delta=st.booleans(),
)
def test_kernels_match_the_per_chunk_form_on_arbitrary_finite_vectors(vector, delta):
    reference = uniform(vector.size, 3) if delta else None
    if delta and not np.isfinite(vector - reference).all():
        reference = None
    spec = "int8+delta" if reference is not None else "int8"
    blob, reconstruction = serialize_with_reconstruction(vector, spec, reference=reference)
    payload, expected = reference_blob_and_reconstruction(vector, reference)
    assert payload_of(blob) == payload
    assert reconstruction.tobytes() == expected.tobytes()
    decoded = deserialize_vector(blob, copy=True, reference=reference)
    assert decoded.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", FORMATS)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("position", [3, INT8_CHUNK_ELEMENTS + 2])
def test_non_finite_values_still_raise(spec, bad, position):
    vector = uniform(INT8_CHUNK_ELEMENTS + 5, 21)
    vector[position] = bad  # the second position sits in the tail chunk
    reference = np.zeros(vector.size) if "delta" in spec else None
    with pytest.raises(SerializationError, match="finite"):
        serialize_vector(vector, spec, reference=reference)
    with pytest.raises(SerializationError, match="finite"):
        serialize_with_reconstruction(vector, spec, reference=reference)


@pytest.mark.parametrize("name,vector,spec,reference", FLOAT_CASES, ids=[c[0] for c in FLOAT_CASES])
def test_float_payload_is_the_nearest_value_of_the_wire_width(name, vector, spec, reference):
    dtype = np.dtype(f"<f{4 if spec.startswith('float32') else 2}")
    values = vector if reference is None else vector - reference
    blob, reconstruction = serialize_with_reconstruction(vector, spec, reference=reference)
    payload = np.frombuffer(payload_of(blob), dtype=dtype)
    sent = payload.astype(np.float64)
    error = np.abs(sent - values)
    for direction in (-np.inf, np.inf):
        neighbour = np.nextafter(payload, dtype.type(direction)).astype(np.float64)
        assert (error <= np.abs(neighbour - values)).all()
        tie = error == np.abs(neighbour - values)
        assert (payload.view(f"<u{dtype.itemsize}")[tie] & 1 == 0).all()
    assert (np.signbit(payload) == np.signbit(values)).all()
    expected = sent if reference is None else reference + sent
    assert reconstruction.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", FLOAT_FORMATS)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_values_cross_the_float_bases(spec, bad):
    """Unlike int8, a float width carries a non-finite value to the
    aggregation rule, which ranks it; the rest of the vector is untouched."""
    vector = uniform(1030, 22)
    vector[[3, 1029]] = bad
    reference = uniform(vector.size, 23) if "delta" in spec else None
    blob, reconstruction = serialize_with_reconstruction(vector, spec, reference=reference)
    decoded = deserialize_vector(blob, copy=True, reference=reference)
    assert decoded.tobytes() == reconstruction.tobytes()
    assert np.array_equal(decoded[[3, 1029]], vector[[3, 1029]], equal_nan=True)
    assert np.isfinite(np.delete(decoded, [3, 1029])).all()


@pytest.mark.parametrize("spec", FORMATS + FLOAT_FORMATS)
def test_read_only_input_view_encodes_identically_and_is_not_written(spec):
    """Handlers serve read-only views of live buffers: the kernel must work
    on its own array."""
    size = 7683
    backing = uniform(size + 20, 31)
    expected_backing = backing.tobytes()
    backing.setflags(write=False)
    view = backing[10 : 10 + size]
    reference = uniform(size, 32) if "delta" in spec else None
    if reference is not None:
        reference.setflags(write=False)
    owned = np.array(view)
    blob, reconstruction = serialize_with_reconstruction(view, spec, reference=reference)
    assert (sha(blob), sha(reconstruction.tobytes())) == tuple(
        digests(owned, spec, reference).values()
    )
    assert reconstruction.flags.writeable
    assert not np.shares_memory(reconstruction, backing)
    assert backing.tobytes() == expected_backing
    if reference is not None:
        assert reference.tobytes() == uniform(size, 32).tobytes()


@pytest.mark.parametrize("spec", FORMATS + FLOAT_FORMATS)
def test_decoding_into_a_round_buffer_row_matches_the_fresh_decode(spec):
    size = 7683
    vector = uniform(size, 41)
    reference = uniform(size, 42) if "delta" in spec else None
    blob, reconstruction = serialize_with_reconstruction(vector, spec, reference=reference)
    buffer = RoundBuffer(3, size)
    storage = buffer._storage
    storage[...] = 99.0
    returned = deserialize_vector(blob, reference=reference, out=storage[1])
    assert np.shares_memory(returned, storage[1])
    assert storage[1].tobytes() == reconstruction.tobytes()
    assert (storage[0] == 99.0).all() and (storage[2] == 99.0).all()
    if reference is not None:
        # A row that *is* the reference must still decode correctly.
        storage[2] = reference
        deserialize_vector(blob, reference=storage[2], out=storage[2])
        assert storage[2].tobytes() == reconstruction.tobytes()


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: digests(v, spec, ref) for name, v, spec, ref in cases()}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE}")
