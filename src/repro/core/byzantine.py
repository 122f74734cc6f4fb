"""Byzantine variants of the main objects.

``ByzantineWorker`` and ``ByzantineServer`` inherit from ``Worker`` and
``Server`` and replace their honest replies by the output of an attack from
:mod:`repro.attacks` — the design described in Section 3.2 ("To support
experimenting with Byzantine behavior ...").
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.attacks.base import Attack, build_attack
from repro.core.server import Server
from repro.core.worker import Worker
from repro.network.message import RequestContext


def _resolve_attack(attack: Union[str, Attack], seed: int) -> Attack:
    if isinstance(attack, Attack):
        return attack
    return build_attack(attack, seed=seed)


class ByzantineWorker(Worker):
    """A worker that corrupts (or withholds) the gradients it serves.

    ``attack_active`` gates the malicious behaviour at serve time: a scenario
    (:mod:`repro.core.scenario`) can switch a declared-Byzantine worker
    between honest and malicious mid-training (attack onset, churn at the
    f-bound) without rebuilding the cluster.
    """

    def __init__(self, *args, attack: Union[str, Attack] = "random", attack_seed: int = 7, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.attack = _resolve_attack(attack, attack_seed)
        self.attack_active = True

    def _serve_gradient(self, context: RequestContext) -> Optional[np.ndarray]:
        # Hold the (re-entrant) serve lock across the attack as well: the
        # attack's RNG is shared state, and concurrent fan-outs from several
        # replicas must consume it in a consistent order.
        with self._serve_lock:
            honest = super()._serve_gradient(context)
            if honest is None:  # pragma: no cover - defensive, workers always reply
                return None
            if not self.attack_active:
                return honest
            return self.attack(honest)


class ByzantineServer(Server):
    """A server replica that corrupts the model state it serves to peers.

    Its *own* training behaviour is unchanged (a Byzantine machine may well do
    the honest computation locally); only what it tells other nodes is
    malicious.
    """

    def __init__(self, *args, attack: Union[str, Attack] = "random", attack_seed: int = 11, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.attack = _resolve_attack(attack, attack_seed)
        #: Scenario-togglable gate, mirroring ByzantineWorker.attack_active.
        self.attack_active = True

    def _serve_model(self, context: RequestContext) -> Optional[np.ndarray]:
        # The attack's RNG is shared state that concurrent fan-outs from
        # several peers must consume in a consistent order.
        with self._serve_lock:
            honest = super()._serve_model(context)
            if not self.attack_active:
                return honest
            return self.attack(honest)

    def _serve_aggregated_gradient(self, context: RequestContext) -> Optional[np.ndarray]:
        with self._serve_lock:
            honest = super()._serve_aggregated_gradient(context)
            if honest is None or not self.attack_active:
                return honest
            return self.attack(honest)
