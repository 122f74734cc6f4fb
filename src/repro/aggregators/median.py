"""Coordinate-wise Median GAR (Xie et al., 2018).

Requires ``q >= 2f + 1``.  The paper's GPU implementation replaces
branch-heavy selection with a branchless 3-element sorting primitive, and so
does this one: :func:`~repro.aggregators.base.sorted_columns` orders a small
quorum by whole-row compare-exchanges (``np.minimum`` / ``np.maximum``: no
branch, no per-coordinate call) and the median is the middle of the ordered
block.  ``numpy.median(axis=0)`` is *not* that primitive: it selects column by
column, ~10x slower for 3 rows at d = 30 730 (``docs/performance.md``, section
7).  A column holding a NaN has a NaN median, as with ``numpy.median``.
"""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import GAR, column_median, register_gar, sorted_columns


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
        return column_median(sorted_columns(matrix))

    def flops(self, d: int) -> float:
        # The cost model's figure (pinned by the goldens): linear in the inputs per
        # coordinate; the worst case is quadratic (documented in Section 6.3).
        return float(self.n * d)

    def worst_case_flops(self, d: int) -> float:
        return float(self.n ** 2 * d)
