"""Coordinate-wise trimmed mean (Yin et al., 2018) — an extension GAR.

Not part of the four GARs evaluated in the paper's figures, but explicitly
called out as trivially addable ("Garfield can straightforwardly include the
other ones").  It removes the ``f`` largest and ``f`` smallest values per
coordinate and averages the remainder.  Requires ``q >= 2f + 1``.
"""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import GAR, register_gar, sorted_columns


@register_gar
class TrimmedMean(GAR):
    """Coordinate-wise mean after discarding the f extremes on each side.

    Byzantine tolerance: withstands up to ``f`` malicious inputs provided
    ``n >= 2f + 1``, so at least one honest value survives the trimming on
    every coordinate.
    """

    name = "trimmed-mean"
    coordinate_wise = True

    @classmethod
    def minimum_inputs(cls, f: int) -> int:
        return 2 * f + 1

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        if self.f == 0:
            return matrix.mean(axis=0)
        ordered = sorted_columns(matrix)
        trimmed = ordered[self.f : matrix.shape[0] - self.f]
        return trimmed.mean(axis=0)

    def flops(self, d: int) -> float:
        return float(self.n * np.log2(max(self.n, 2)) * d)
