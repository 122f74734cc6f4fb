"""Bulyan GAR (El Mhamdi, Guerraoui, Rouault — ICML 2018).

Bulyan runs an inner Byzantine-resilient GAR (Multi-Krum here, as in the
paper) several times to select a committee of ``k = q - 2f`` gradients, then
performs a trimmed, median-anchored coordinate-wise average over that
committee: for every coordinate it keeps the ``k' = k - 2f`` values closest to
the coordinate-wise median and averages them.  This two-stage construction is
what lets Bulyan sustain very high-dimensional models.  It requires
``q >= 4f + 3`` and runs in O(q^2 d).
"""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import DistanceGAR, mean_around_median, register_gar
from repro.aggregators.krum import krum_scores_from_distances


@register_gar
class Bulyan(DistanceGAR):
    """Bulyan over Multi-Krum selection followed by a trimmed median-average.

    Byzantine tolerance: withstands up to ``f`` malicious inputs provided
    ``n >= 4f + 3`` — the strongest precondition of the evaluated GARs, in
    exchange for coordinate-level robustness in very high dimension.
    """

    name = "bulyan"

    @classmethod
    def minimum_inputs(cls, f: int) -> int:
        return 4 * f + 3

    def select(self, distances: np.ndarray) -> np.ndarray:
        """Stage 1: iterate the inner GAR (Krum) to pick a committee of ``q - 2f``.

        Each committee round scores the survivors by slicing the one distance
        matrix, an O(r^2 log r) operation instead of O(r^2 d).  Once ``2f + 2``
        rows remain, the last seats go to the lowest row indices with no score,
        so an early outlier can take one (ROADMAP item 5).
        """
        q = distances.shape[0]
        committee_size = max(1, q - 2 * self.f)
        remaining = list(range(q))
        committee: list[int] = []
        while len(committee) < committee_size and remaining:
            if len(remaining) <= 2 * self.f + 2:
                # Not enough vectors left for meaningful Krum scores; take the rest.
                committee.extend(remaining)
                break
            idx = np.asarray(remaining)
            scores = krum_scores_from_distances(distances[np.ix_(idx, idx)], self.f)
            best_local = int(np.argmin(scores))
            committee.append(remaining.pop(best_local))
        return np.asarray(committee[:committee_size], dtype=np.intp)

    def combine(self, rows: np.ndarray) -> np.ndarray:
        """Stage 2: per coordinate, average the ``k - 2f`` committee values closest to the median."""
        return mean_around_median(rows, max(1, rows.shape[0] - 2 * self.f))
