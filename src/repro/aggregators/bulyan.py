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

from repro.aggregators.base import DistanceGAR, mean_around_median, rank, register_gar
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

    def select(self, distances: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Stage 1: iterate the inner GAR (Krum) to pick a committee of ``q - 2f``.

        Each committee round scores the survivors by slicing the one distance
        matrix, an O(r^2 log r) operation instead of O(r^2 d), and seats the
        first of :func:`rank`.  Once ``2f + 2`` rows remain Krum's ``2f + 3``
        precondition no longer holds, so one final ranking of those rows fills
        the last seats.  The committee comes out in rank order.
        """
        committee_size = max(1, distances.shape[0] - 2 * self.f)
        remaining = np.arange(distances.shape[0])
        committee: list[int] = []
        while len(committee) < committee_size:
            scores = krum_scores_from_distances(distances[np.ix_(remaining, remaining)], self.f)
            order = rank(scores, positions[remaining])
            seats = 1 if remaining.size > 2 * self.f + 2 else committee_size - len(committee)
            committee.extend(remaining[order[:seats]].tolist())
            remaining = remaining[order[seats:]]
        return np.asarray(committee, dtype=np.intp)

    def combine(self, rows: np.ndarray) -> np.ndarray:
        """Stage 2: per coordinate, average the ``k - 2f`` committee values closest to the median."""
        return mean_around_median(rows, max(1, rows.shape[0] - 2 * self.f))
