"""Tests for the shared utility helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import cosine_similarity, make_rng


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng(3).random() == make_rng(3).random()

    def test_different_seeds_differ(self):
        assert make_rng(3).random() != make_rng(4).random()


class TestCosineSimilarity:
    def test_parallel_vectors(self):
        assert cosine_similarity(np.ones(4), 2 * np.ones(4)) == pytest.approx(1.0)

    def test_antiparallel_vectors(self):
        assert cosine_similarity(np.ones(4), -np.ones(4)) == pytest.approx(-1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_vector_gives_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0
