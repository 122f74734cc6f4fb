"""Small shared utilities: seeding, flattening helpers, vector similarity."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a numpy ``Generator`` seeded deterministically.

    Passing ``None`` produces a generator seeded from entropy, which is only
    appropriate for interactive exploration; all library components default to
    explicit seeds so experiments are reproducible.
    """
    return np.random.default_rng(seed)


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate a sequence of arrays into a single 1-D float64 vector."""
    if not arrays:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def unflatten_array(vector: np.ndarray, shapes: Sequence[tuple]) -> List[np.ndarray]:
    """Split a flat vector back into arrays with the given ``shapes``.

    Inverse of :func:`flatten_arrays`; raises ``ValueError`` when the vector
    length does not match the total number of elements implied by ``shapes``.
    """
    sizes = [int(np.prod(s)) if len(s) else 1 for s in shapes]
    total = sum(sizes)
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if vector.size != total:
        raise ValueError(
            f"cannot unflatten vector of size {vector.size} into shapes totalling {total}"
        )
    out: List[np.ndarray] = []
    offset = 0
    for size, shape in zip(sizes, shapes):
        out.append(vector[offset : offset + size].reshape(shape))
        offset += size
    return out


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """cos(phi) between two vectors; 0.0 when either vector is all zeros."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
