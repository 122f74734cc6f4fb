"""MeaMed / Phocas-style GAR: mean of the values closest to the coordinate-wise median.

Another member of the robust-mean family referenced by the paper (Xie et al.,
"Generalized Byzantine-tolerant SGD").  For every coordinate it keeps the
``q - f`` values closest to the coordinate-wise median and averages them.
Requires ``q >= 2f + 1`` and runs in O(q log q * d).
"""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import GAR, mean_around_median, register_gar, sorted_columns


@register_gar
class MeaMed(GAR):
    """Mean-around-median aggregation (a.k.a. MeaMed, used by Phocas).

    Byzantine tolerance: withstands up to ``f`` malicious inputs provided
    ``n >= 2f + 1``; the ``n - f`` values kept per coordinate then contain an
    honest majority anchored at the coordinate-wise median.
    """

    name = "meamed"
    coordinate_wise = True

    @classmethod
    def minimum_inputs(cls, f: int) -> int:
        return 2 * f + 1

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        if self.f == 0:
            return matrix.mean(axis=0)
        # Value-sorted columns: equal distances on either side of the median
        # resolve by value, not by row, and each column stays its own.
        return mean_around_median(sorted_columns(matrix), matrix.shape[0] - self.f)

    def flops(self, d: int) -> float:
        return float(self.n * np.log2(max(self.n, 2)) * d)
