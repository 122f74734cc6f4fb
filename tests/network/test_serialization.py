"""Tests for vector serialization (the protocol-buffer substitute)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CommunicationError
from repro.network.serialization import (
    deserialize_vector,
    message_nbytes,
    serialize_vector,
    serialize_vector_parts,
    serialized_nbytes,
)


class TestRoundTrip:
    def test_1d_roundtrip(self):
        vector = np.random.default_rng(0).normal(size=257)
        assert np.allclose(deserialize_vector(serialize_vector(vector)), vector)

    def test_2d_roundtrip_preserves_shape(self):
        matrix = np.arange(12.0).reshape(3, 4)
        restored = deserialize_vector(serialize_vector(matrix))
        assert restored.shape == (3, 4)
        assert np.allclose(restored, matrix)

    def test_empty_vector(self):
        restored = deserialize_vector(serialize_vector(np.zeros(0)))
        assert restored.size == 0

    def test_scalar_array(self):
        restored = deserialize_vector(serialize_vector(np.array(3.5)))
        assert restored == pytest.approx(3.5)

    def test_non_contiguous_input(self):
        matrix = np.arange(20.0).reshape(4, 5)[:, ::2]
        restored = deserialize_vector(serialize_vector(matrix))
        assert np.allclose(restored, matrix)

    def test_deserialized_default_is_readonly_view(self):
        vector = np.ones(8)
        blob = serialize_vector(vector)
        restored = deserialize_vector(blob)
        assert not restored.flags.writeable
        with pytest.raises(ValueError):
            restored[0] = 99.0  # zero-copy views must reject writes
        # The view aliases the blob, not the source vector.
        assert restored.base is not None

    def test_deserialize_copy_is_writable_and_owned(self):
        vector = np.ones(8)
        restored = deserialize_vector(serialize_vector(vector), copy=True)
        restored[0] = 99.0  # must not raise
        assert vector[0] == 1.0

    def test_zero_copy_view_survives_blob_going_out_of_scope(self):
        restored = deserialize_vector(serialize_vector(np.arange(16.0)))
        assert np.allclose(restored, np.arange(16.0))  # base keeps blob alive


class TestZeroCopyParts:
    def test_parts_alias_the_array_storage(self):
        vector = np.arange(32.0)
        header, payload = serialize_vector_parts(vector)
        assert isinstance(payload, memoryview)
        assert len(payload) == vector.nbytes
        assert np.shares_memory(np.frombuffer(payload, dtype=np.float64), vector)

    def test_parts_join_equals_serialize(self):
        vector = np.random.default_rng(3).normal(size=(5, 7))
        assert b"".join(serialize_vector_parts(vector)) == serialize_vector(vector)

    def test_readonly_flat_view_serializes(self):
        vector = np.arange(16.0)
        ro = vector.view()
        ro.setflags(write=False)
        assert np.allclose(deserialize_vector(serialize_vector(ro)), vector)


class TestErrors:
    def test_bad_magic_rejected(self):
        with pytest.raises(CommunicationError):
            deserialize_vector(b"JUNKxxxxxxxxxxxxxxxxxxxxx")

    def test_truncated_payload_rejected(self):
        blob = serialize_vector(np.ones(16))
        with pytest.raises(CommunicationError):
            deserialize_vector(blob[:-8])

    def test_empty_blob_rejected(self):
        with pytest.raises(CommunicationError):
            deserialize_vector(b"")


class TestSizeAccounting:
    def test_wire_size_scales_with_dimension(self):
        assert serialized_nbytes(2_000) > serialized_nbytes(1_000)

    def test_wire_size_defaults_to_actual_float64_width(self):
        # The codec ships float64: its framed length says 8 B/element.
        small, large = serialized_nbytes(0), serialized_nbytes(1_000_000)
        assert large - small == 8_000_000

    def test_a_float64_message_is_priced_at_the_paper_float32_width(self):
        # The one byte count prices the float64 passthrough at the paper's
        # float32 tensors, with the same frame header as the codec.
        small, large = message_nbytes(0), message_nbytes(1_000_000)
        assert large - small == 4_000_000
        assert small == serialized_nbytes(0)

    def test_default_matches_serialized_blob_length(self):
        vector = np.zeros(257)
        assert len(serialize_vector(vector)) == serialized_nbytes(257)

    @pytest.mark.parametrize("spec, width", [("float64", 4), ("float32", 4), ("float16", 2)])
    def test_priced_width_per_base(self, spec, width):
        assert message_nbytes(100, spec) - message_nbytes(0, spec) == 100 * width

    @pytest.mark.parametrize("spec", ["float64+delta", "float32+delta", "float16+delta", "int8+delta"])
    def test_delta_is_never_priced(self, spec):
        base = spec.split("+")[0]
        assert message_nbytes(5_000, spec) == message_nbytes(5_000, base)
