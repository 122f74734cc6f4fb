"""Krum and Multi-Krum GARs (Blanchard et al., NeurIPS 2017).

Krum scores every input by the sum of squared distances to its ``n - f - 2``
closest neighbours and returns the input with the smallest score.  Multi-Krum
averages the ``m`` best-scoring inputs, which improves the convergence rate
when most inputs are honest.  Both require ``q >= 2f + 3`` and run in
O(q^2 d).
"""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import DistanceGAR, register_gar


def krum_scores_from_distances(distances: np.ndarray, f: int) -> np.ndarray:
    """Krum scores given a precomputed (q, q) squared-distance matrix.

    ``distances`` must have an exact-zero diagonal (what
    :meth:`DistanceGAR.select` receives); each row's self-distance is skipped
    by dropping the first entry of the sorted row, so a read-only matrix is
    never mutated.  Accepting distances directly lets Bulyan score its
    shrinking committees by slicing one matrix instead of recomputing
    O(q^2 d) products per committee round.
    """
    q = distances.shape[0]
    closest = q - f - 2
    if closest < 1:
        closest = 1
    sorted_distances = np.sort(distances, axis=1)
    return sorted_distances[:, 1 : closest + 1].sum(axis=1)


@register_gar
class Krum(DistanceGAR):
    """Return the single input vector with the smallest Krum score.

    Byzantine tolerance: withstands up to ``f`` malicious inputs provided
    ``n >= 2f + 3`` (the Blanchard et al. condition), under the variance
    bound checked by :mod:`repro.aggregators.variance`.
    """

    name = "krum"

    @classmethod
    def minimum_inputs(cls, f: int) -> int:
        return 2 * f + 3

    def select(self, distances: np.ndarray) -> np.ndarray:
        return np.asarray([np.argmin(krum_scores_from_distances(distances, self.f))])

    def combine(self, rows: np.ndarray) -> np.ndarray:
        return rows[0].copy()


@register_gar
class MultiKrum(DistanceGAR):
    """Average of the ``m`` smallest-scoring inputs (defaults to ``n - f``).

    Byzantine tolerance: same precondition as Krum — up to ``f`` malicious
    inputs when ``n >= 2f + 3``; averaging the best ``m`` improves the
    convergence rate when most inputs are honest.
    """

    name = "multi-krum"

    def __init__(self, n: int, f: int = 0, m: int | None = None) -> None:
        super().__init__(n, f)
        self.m = m if m is not None else max(1, n - f)
        if not 1 <= self.m <= n:
            raise ValueError(f"m must be in [1, n], got {self.m}")

    @classmethod
    def minimum_inputs(cls, f: int) -> int:
        return 2 * f + 3

    def select(self, distances: np.ndarray) -> np.ndarray:
        scores = krum_scores_from_distances(distances, self.f)
        return np.argsort(scores)[: min(self.m, distances.shape[0])]

    def __repr__(self) -> str:
        return f"MultiKrum(n={self.n}, f={self.f}, m={self.m})"
