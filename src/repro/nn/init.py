"""Weight initialization schemes (Glorot / He) used by the layers."""

from __future__ import annotations

import numpy as np


def glorot_uniform(shape: tuple, fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Glorot (Xavier) uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: tuple, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initialization, suited to ReLU networks."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)

