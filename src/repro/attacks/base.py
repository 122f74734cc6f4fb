"""Attack interface and registry."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils import make_rng


class Attack:
    """Base class for Byzantine behaviours.

    Subclasses implement :meth:`craft`, which receives the vector the node
    *would* have sent had it been honest, plus (when the attack models
    colluding omniscient adversaries) the honest vectors of the other nodes.
    Returning ``None`` means the node stays silent (a dropped message), which
    the networking layer translates into a missing reply.
    """

    name: str = "abstract"

    def __init__(self, seed: int = 0) -> None:
        self.rng = make_rng(seed)

    def craft(
        self,
        honest_vector: np.ndarray,
        peer_vectors: Optional[Sequence[np.ndarray]] = None,
    ) -> Optional[np.ndarray]:
        raise NotImplementedError

    def __call__(
        self,
        honest_vector: np.ndarray,
        peer_vectors: Optional[Sequence[np.ndarray]] = None,
    ) -> Optional[np.ndarray]:
        return self.craft(np.asarray(honest_vector, dtype=np.float64), peer_vectors)


ATTACK_REGISTRY: Dict[str, Type[Attack]] = {}


def register_attack(cls: Type[Attack]) -> Type[Attack]:
    """Class decorator adding an attack to the global registry."""
    if not issubclass(cls, Attack):
        raise TypeError("register_attack expects an Attack subclass")
    ATTACK_REGISTRY[cls.name] = cls
    return cls


def available_attacks() -> List[str]:
    return sorted(ATTACK_REGISTRY)


def attack_class(name: str) -> Type[Attack]:
    """The registered attack a (case- and ``_``/``-``-insensitive) name denotes."""
    key = name.lower().replace("_", "-")
    if key not in ATTACK_REGISTRY:
        raise ConfigurationError(f"unknown attack '{name}'; available: {available_attacks()}")
    return ATTACK_REGISTRY[key]


def build_attack(name: str, seed: int = 0, **kwargs) -> Attack:
    """Instantiate an attack by name."""
    return attack_class(name)(seed=seed, **kwargs)
