"""The sender's reconstruction against the receiver's decode, byte for byte.

:func:`serialize_with_reconstruction` builds what the receiver will hold from
the encoded values themselves instead of decoding its own blob.  A delta
stream stays in step only if that is bit-equal to what
:func:`deserialize_vector` makes of the blob, so the decoder is the oracle
here: every base, absolute and delta, across the int8 chunk boundaries,
constant chunks, signed zeros and magnitudes from 1e-300 to 1e300.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.network.serialization import (
    INT8_CHUNK_ELEMENTS,
    deserialize_vector,
    serialize_with_reconstruction,
)

SIZES = (1, 4095, 4096, 4097, 30_730)
SPECS = [base + delta for base in ("float64", "float32", "float16", "int8") for delta in ("", "+delta")]


def _vector(case: str, size: int) -> np.ndarray:
    rng = np.random.default_rng(size)
    if case == "normal":
        return rng.normal(size=size)
    if case == "constant":
        return np.full(size, -2.75)
    if case == "partly-constant":  # the first chunk constant, the rest not
        vector = rng.normal(size=size)
        vector[:INT8_CHUNK_ELEMENTS] = 0.5
        return vector
    if case == "signed-zeros":
        return rng.choice([0.0, -0.0], size=size)
    # "magnitudes": every decade from 1e-300 to 1e300, both signs
    return rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-300.0, 300.0, size=size)


@pytest.mark.filterwarnings("ignore:overflow encountered")  # 1e300 narrowed to float16/32
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", ["normal", "constant", "partly-constant", "signed-zeros", "magnitudes"])
def test_reconstruction_is_the_receivers_decode(spec, size, case):
    vector = _vector(case, size)
    reference = np.random.default_rng(7).normal(size=size) if "delta" in spec else None
    before = vector.tobytes()
    blob, reconstruction = serialize_with_reconstruction(vector, spec, reference=reference)
    decoded = deserialize_vector(blob, copy=True, reference=reference)
    assert reconstruction.dtype == decoded.dtype == np.float64
    assert reconstruction.shape == decoded.shape
    assert reconstruction.tobytes() == decoded.tobytes()
    assert reconstruction.flags.writeable and not np.shares_memory(reconstruction, vector)
    assert vector.tobytes() == before


@pytest.mark.parametrize("spec", ["int8", "int8+delta"])
def test_a_non_finite_int8_input_still_raises(spec):
    vector = np.ones(INT8_CHUNK_ELEMENTS + 1)
    vector[-1] = np.inf
    reference = np.zeros(vector.size) if "delta" in spec else None
    with pytest.raises(SerializationError, match="finite"):
        serialize_with_reconstruction(vector, spec, reference=reference)
