"""Plain averaging — the vulnerable baseline used by vanilla deployments."""

from __future__ import annotations

import numpy as np

from repro.aggregators.base import GAR, register_gar


@register_gar
class Average(GAR):
    """Coordinate-wise mean of the inputs.

    Byzantine tolerance: **none** (``f = 0``).  This is what vanilla
    TensorFlow / PyTorch parameter servers do; a single Byzantine input can
    move the average arbitrarily far.  Constructing it with ``f > 0`` is
    allowed (the paper's baselines do so to keep call sites uniform) but
    offers no protection.
    """

    name = "average"
    coordinate_wise = True

    @classmethod
    def minimum_inputs(cls, f: int) -> int:
        return max(1, f + 1)

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        return matrix.mean(axis=0)

    def flops(self, d: int) -> float:
        return float(self.n * d)
