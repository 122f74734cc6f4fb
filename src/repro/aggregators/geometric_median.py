"""Geometric median GAR (smoothed Weiszfeld iteration) — an extension rule.

The geometric median minimises the sum of euclidean distances to the input
vectors and is the basis of RFA-style robust aggregation.  It is not one of
the four rules evaluated in the paper's figures but belongs to the family the
paper says Garfield "can straightforwardly include".  Requires
``q >= 2f + 1`` and runs in O(iterations * q d).
"""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import GAR, column_median, register_gar, sorted_columns


@register_gar
class GeometricMedian(GAR):
    """Smoothed Weiszfeld algorithm for the geometric median.

    Byzantine tolerance: withstands up to ``f`` malicious inputs provided
    ``n >= 2f + 1`` (honest majority), since the geometric median's breakdown
    point is 1/2.
    """

    name = "geometric-median"

    def __init__(self, n: int, f: int = 0, iterations: int = 8, smoothing: float = 1e-6) -> None:
        super().__init__(n, f)
        if iterations < 1:
            raise ValueError("iterations must be positive")
        self.iterations = iterations
        self.smoothing = smoothing

    @classmethod
    def minimum_inputs(cls, f: int) -> int:
        return 2 * f + 1

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        estimate = column_median(sorted_columns(matrix))
        for _ in range(self.iterations):
            distances = np.linalg.norm(matrix - estimate[None, :], axis=1)
            weights = 1.0 / np.maximum(distances, self.smoothing)
            weights /= weights.sum()
            estimate = weights @ matrix
        return estimate

    def flops(self, d: int) -> float:
        return float(self.iterations * self.n * d)

    def __repr__(self) -> str:
        return (
            f"GeometricMedian(n={self.n}, f={self.f}, "
            f"iterations={self.iterations}, smoothing={self.smoothing})"
        )
