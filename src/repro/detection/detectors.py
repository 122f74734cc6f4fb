"""Bundled suspicion detectors.

All three are classical robust-statistics outlier tests over one round's
``(q, d)`` gradient matrix, in the spirit of ByzID-style statistical
detection: honest workers draw their gradients from the same distribution
(same loss surface, i.i.d. mini-batches), so a submission far from the robust
centre of the crowd is suspicious.

Every detector reduces a worker's round to one non-negative per-worker
statistic (distance, mean robust z, z-score energy) and normalises it by the
**honest envelope**: under a declared budget of at most ``f`` Byzantine
workers, the ``(f+1)``-th largest statistic must belong to an honest worker,
so it bounds what honest mini-batch noise looks like this round.  The raw
suspicion is the excess over that bound:

``raw_i = max(0, stat_i / stat_((f+1)-th largest) - 1)``

Honest workers score 0 by construction whenever the budget is saturated (the
top ``f`` statistics are the attackers'), and with ``f == 0`` every score is
identically 0 — a declared budget of "no Byzantines" disables suspicion
rather than hallucinating it from noise.  A reversed / boosted / random
gradient exceeds the envelope by orders of magnitude and scores far above 1.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.aggregators.base import column_median, sorted_columns
from repro.detection.base import Detector, register_detector

#: Guard against division by zero when the crowd is perfectly concentrated.
_EPS = 1e-12


def _envelope_excess(stat: np.ndarray, f: int) -> np.ndarray:
    """Excess of each statistic over the ``(f+1)``-th largest one."""
    order = np.sort(np.asarray(stat, dtype=np.float64))[::-1]
    scale = float(order[min(max(int(f), 0), len(order) - 1)]) + _EPS
    return np.maximum(0.0, stat / scale - 1.0)


@register_detector("distance")
class DistanceToAggregateDetector(Detector):
    """Euclidean distance to the round's robust aggregate.

    ``stat_i = ||g_i - aggregate||`` — a reversed gradient sits roughly a
    hundred honest-noise radii from the coordinate-wise median while every
    honest worker stays inside the envelope, so attackers score ~100 and
    honest workers 0.
    """

    def score(
        self,
        matrix: np.ndarray,
        sources: Sequence[str],
        aggregate: np.ndarray,
        f: int = 0,
    ) -> Dict[str, float]:
        grid = self._as_matrix(matrix)
        centre = np.asarray(aggregate, dtype=np.float64).reshape(1, -1)
        distances = np.linalg.norm(grid - centre, axis=1)
        raw = _envelope_excess(distances, f)
        return {name: float(value) for name, value in zip(sources, raw)}


@register_detector("mad")
class MadOutlierDetector(Detector):
    """Coordinate-wise median-absolute-deviation outlier test.

    For each coordinate ``j`` the crowd defines a robust centre ``m_j``
    (median) and scale ``1.4826 * MAD_j``; a worker's statistic is its robust
    z-score averaged over coordinates, ``stat_i = mean_j z_ij``.  Unlike the
    plain distance this is per-coordinate scale-free, so an attacker inflating
    only a sparse subset of coordinates still stands out.
    """

    def score(
        self,
        matrix: np.ndarray,
        sources: Sequence[str],
        aggregate: np.ndarray,
        f: int = 0,
    ) -> Dict[str, float]:
        grid = self._as_matrix(matrix)
        centre = column_median(sorted_columns(grid))[None, :]
        deviation = np.abs(grid - centre)
        mad = column_median(sorted_columns(deviation))[None, :]
        z = deviation / (1.4826 * mad + _EPS)
        raw = _envelope_excess(np.mean(z, axis=1), f)
        return {name: float(value) for name, value in zip(sources, raw)}


@register_detector("variance")
class VarianceDetector(Detector):
    """Mean-squared z-score energy against the column-wise crowd statistics.

    Each coordinate is standardised by the crowd's mean and standard
    deviation; a worker's statistic is the mean of its squared z-scores,
    ``stat_i = mean_j ((g_ij - mu_j) / sigma_j)^2``.  Honest workers share the
    same energy level; a worker inflating coordinate-wise variance (LIE within
    a large budget, random vectors, sign flips) exceeds the envelope.
    """

    def score(
        self,
        matrix: np.ndarray,
        sources: Sequence[str],
        aggregate: np.ndarray,
        f: int = 0,
    ) -> Dict[str, float]:
        grid = self._as_matrix(matrix)
        mean = np.mean(grid, axis=0, keepdims=True)
        std = np.std(grid, axis=0, keepdims=True)
        z = (grid - mean) / (std + _EPS)
        raw = _envelope_excess(np.mean(z * z, axis=1), f)
        return {name: float(value) for name, value in zip(sources, raw)}
