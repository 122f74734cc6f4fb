"""Coordinate-wise Median GAR (Xie et al., 2018).

Requires ``q >= 2f + 1`` and runs in O(q d) expected time (introselect per
coordinate).  The paper's GPU implementation replaces branch-heavy selection
with a branchless 3-element sorting primitive; the equivalent vectorized
formulation here is ``numpy.median``, which is already branch-free across the
coordinate axis.
"""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import GAR, register_gar


@register_gar
class Median(GAR):
    """Coordinate-wise median of the input vectors.

    Byzantine tolerance: withstands up to ``f`` malicious inputs provided
    ``n >= 2f + 1`` — an honest majority per coordinate.
    """

    name = "median"
    coordinate_wise = True

    @classmethod
    def minimum_inputs(cls, f: int) -> int:
        return 2 * f + 1

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        return np.median(matrix, axis=0)

    def flops(self, d: int) -> float:
        # Expected introselect cost is linear in the number of inputs per
        # coordinate; the worst case is quadratic (documented in Section 6.3).
        return float(self.n * d)

    def worst_case_flops(self, d: int) -> float:
        return float(self.n ** 2 * d)
