"""MDA — Minimum-Diameter Averaging (Rousseeuw, 1985; El Mhamdi et al.).

MDA searches for the subset of ``q - f`` inputs with the smallest diameter
(the maximum pairwise distance inside the subset) and returns the average of
that subset.  Its complexity is O(C(q, f) + q^2 d): exponential in ``f`` when
``f = O(q)``, polynomial when ``f = O(1)``.  It requires ``q >= 2f + 1`` and
makes a weaker variance assumption than Krum or Median (Section 3.1).
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

import numpy as np

from repro.aggregators.base import DistanceGAR, register_gar
from repro.exceptions import AggregationError


@register_gar
class MDA(DistanceGAR):
    """Average of the minimum-diameter subset of size ``q - f``.

    Byzantine tolerance: withstands up to ``f`` malicious inputs provided
    ``n >= 2f + 1``, under the weakest variance condition of the GARs
    evaluated in the paper (Section 3.1) — at the price of a subset search
    that is exponential in ``f``.
    """

    name = "mda"

    #: Safety valve: refuse to enumerate more candidate subsets than this.
    max_subsets = 2_000_000

    #: Upper bound on how many candidate subsets are scored per vectorized
    #: batch; the effective batch also shrinks with ``keep**2`` so the
    #: (batch, keep, keep) gather stays within :attr:`batch_budget_bytes`.
    subset_batch = 4096

    #: Memory budget for one batch's distance gather (float64 bytes).
    batch_budget_bytes = 8 << 20

    @classmethod
    def minimum_inputs(cls, f: int) -> int:
        return 2 * f + 1

    def select(self, distances: np.ndarray) -> np.ndarray:
        """Indices of the minimum-diameter ``q - f`` subset.

        Enumeration order is that of ``itertools.combinations``, so ties
        resolve identically wherever the distances come from.
        """
        q = distances.shape[0]
        if self.f == 0:
            return np.arange(q)
        keep = q - self.f
        if comb(q, keep) > self.max_subsets:
            raise AggregationError(
                f"MDA would need to enumerate {comb(q, keep)} subsets "
                f"(q={q}, f={self.f}); this exceeds the safety limit"
            )
        euclidean = np.sqrt(distances)

        best_subset: tuple = ()
        best_diameter = np.inf
        # Score subsets in vectorized batches: for a (B, keep) block of candidate
        # index tuples, gather the (B, keep, keep) distance blocks and reduce to
        # per-subset diameters in one shot.
        batch_size = max(1, min(self.subset_batch, self.batch_budget_bytes // (keep * keep * 8)))
        iterator = combinations(range(q), keep)
        while True:
            batch = list(islice(iterator, batch_size))
            if not batch:
                break
            idx = np.asarray(batch)
            diameters = euclidean[idx[:, :, None], idx[:, None, :]].max(axis=(1, 2))
            local = int(np.argmin(diameters))
            if diameters[local] < best_diameter:
                best_diameter = float(diameters[local])
                best_subset = batch[local]
        return np.asarray(best_subset, dtype=np.intp)

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        if self.f == 0:
            # Every row is kept: the plain mean, no distances needed.
            return matrix.mean(axis=0)
        return super()._aggregate(matrix)

    def flops(self, d: int) -> float:
        keep = self.n - self.f
        subset_cost = comb(self.n, keep) * keep ** 2
        return float(subset_cost + self.n ** 2 * d)
