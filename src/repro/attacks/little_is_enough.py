"""The *little-is-enough* attack (Baruch, Baruch & Goldberg, 2019).

Colluding Byzantine workers shift their submitted gradient by a small multiple
``z`` of the per-coordinate standard deviation of the honest gradients.  The
perturbation is small enough to pass distance-based defences (Krum, Median)
while consistently biasing the aggregate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.aggregators.base import as_matrix
from repro.attacks.base import Attack, register_attack


def default_z(num_workers: int, num_byzantine: int) -> float:
    """The z_max value from the original paper, based on a normal quantile.

    ``z = Phi^{-1}((n - f - s) / (n - f))`` with ``s = floor(n/2 + 1) - f``;
    falls back to 1.0 when the formula degenerates for tiny clusters.
    """
    n, f = num_workers, num_byzantine
    honest = n - f
    if honest <= 0:
        return 1.0
    s = int(np.floor(n / 2.0 + 1)) - f
    fraction = (honest - s) / honest
    if not 0.5 < fraction < 1.0:
        return 1.0
    # Imported here, not at module level: every node host imports this module
    # for the attack registry, and scipy.stats costs each ~0.7 s and ~70 MB.
    from scipy import stats

    return float(stats.norm.ppf(fraction))


@register_attack
class LittleIsEnoughAttack(Attack):
    """Submit mean(honest) - z * std(honest), coordinate-wise."""

    name = "little-is-enough"

    def __init__(self, seed: int = 0, z: float = 1.5) -> None:
        super().__init__(seed)
        self.z = z

    def craft(
        self, honest_vector: np.ndarray, peer_vectors: Optional[Sequence[np.ndarray]] = None
    ) -> Optional[np.ndarray]:
        if peer_vectors is None or len(peer_vectors) == 0:
            # Without a view of the other workers, fall back to perturbing the
            # node's own gradient, which is the non-omniscient variant.
            return honest_vector - self.z * np.abs(honest_vector)
        matrix = as_matrix(peer_vectors)  # zero-copy for an omniscient (q, d) view
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        return (mean - self.z * std).reshape(honest_vector.shape)
