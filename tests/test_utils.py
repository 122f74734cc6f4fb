"""Tests for the shared utility helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import (
    cosine_similarity,
    flatten_arrays,
    make_rng,
    unflatten_array,
)


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng(3).random() == make_rng(3).random()

    def test_different_seeds_differ(self):
        assert make_rng(3).random() != make_rng(4).random()


class TestFlatten:
    def test_flatten_concatenates(self):
        flat = flatten_arrays([np.ones((2, 2)), np.zeros(3)])
        assert flat.shape == (7,)
        assert np.allclose(flat[:4], 1.0)

    def test_flatten_empty_list(self):
        assert flatten_arrays([]).size == 0

    def test_unflatten_roundtrip(self):
        arrays = [np.arange(6.0).reshape(2, 3), np.arange(4.0)]
        flat = flatten_arrays(arrays)
        restored = unflatten_array(flat, [a.shape for a in arrays])
        for original, back in zip(arrays, restored):
            assert np.allclose(original, back)

    def test_unflatten_wrong_size(self):
        with pytest.raises(ValueError):
            unflatten_array(np.zeros(5), [(2, 3)])

    def test_unflatten_scalar_shape(self):
        restored = unflatten_array(np.array([7.0]), [()])
        assert restored[0].shape == ()


class TestCosineSimilarity:
    def test_parallel_vectors(self):
        assert cosine_similarity(np.ones(4), 2 * np.ones(4)) == pytest.approx(1.0)

    def test_antiparallel_vectors(self):
        assert cosine_similarity(np.ones(4), -np.ones(4)) == pytest.approx(-1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_vector_gives_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0
