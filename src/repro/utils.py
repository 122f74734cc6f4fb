"""Small shared utilities: seeding, vector similarity."""

from __future__ import annotations

import numpy as np


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a numpy ``Generator`` seeded deterministically.

    Passing ``None`` produces a generator seeded from entropy, which is only
    appropriate for interactive exploration; all library components default to
    explicit seeds so experiments are reproducible.
    """
    return np.random.default_rng(seed)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """cos(phi) between two vectors; 0.0 when either vector is all zeros."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
