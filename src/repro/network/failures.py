"""Failure, straggler, loss and partition injection for the simulated transport.

All mutating entry points are serialized through one re-entrant lock so the
:class:`~repro.core.scenario.ScenarioDirector` can reconfigure the injector at
round boundaries while a :class:`~repro.core.executor.ThreadedExecutor` is
still draining handler tasks that consult it (the same discipline as the
worker-side serve locks).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Union

from repro.utils import make_rng


@dataclass
class FailureInjector:
    """Tracks crashed nodes, stragglers, message loss and network partitions.

    * ``crash(node)`` marks a node as crashed from the current point on; pulls
      targeting it raise :class:`~repro.exceptions.NodeCrashedError`.
    * ``set_straggler(node, factor)`` multiplies every latency sampled for
      replies from that node, modelling a slow machine.
    * ``drop_probability`` lets individual messages be lost with some
      probability (network omission faults); ``set_drop_rate`` is the
      validated mutation path used by scenarios.
    * ``set_partition(islands)`` disconnects groups of nodes from the rest of
      the cluster: messages crossing an island boundary are silently lost
      until ``heal_partition()`` is called.
    """

    seed: int = 0
    drop_probability: float = 0.0
    crashed: Set[str] = field(default_factory=set)
    straggler_factors: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        self._rng = make_rng(self.seed)
        # Pristine bit-generator state, restored whenever the drop rate
        # changes (and by reset()): the drop pattern after a rate change is
        # then a pure function of the seed and the number of samples drawn
        # since, never of how many samples the *previous* rate consumed —
        # which is what keeps serial and threaded runs on one stream.
        self._pristine_state = self._rng.bit_generator.state
        # node id -> partition group; nodes absent from the map are on the
        # "mainland" (group 0), so a partition is declared by naming only the
        # islands that split off.
        self._partition: Dict[str, int] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    def crash(self, node_id: str) -> None:
        with self._lock:
            self.crashed.add(node_id)

    def recover(self, node_id: str) -> None:
        with self._lock:
            self.crashed.discard(node_id)

    def is_crashed(self, node_id: str) -> bool:
        with self._lock:
            return node_id in self.crashed

    # ------------------------------------------------------------------ #
    def set_straggler(self, node_id: str, factor: float) -> None:
        if factor < 1.0:
            raise ValueError("straggler factor must be >= 1.0")
        with self._lock:
            self.straggler_factors[node_id] = factor

    def clear_straggler(self, node_id: str) -> None:
        with self._lock:
            self.straggler_factors.pop(node_id, None)

    def latency_factor(self, node_id: str) -> float:
        with self._lock:
            return self.straggler_factors.get(node_id, 1.0)

    # ------------------------------------------------------------------ #
    def set_drop_rate(self, probability: float) -> None:
        """Validated mutation of :attr:`drop_probability`.

        Changing the rate also rewinds the drop RNG to its pristine state
        (under the same lock ``should_drop`` samples through).  Without the
        rewind, the drop pattern after a mid-round change depends on how many
        samples the previous rate happened to consume before the director's
        mutation landed — a count that differs between the serial and
        threaded engines — silently forking their traces.  After the rewind
        the pattern is a function of ``(seed, probability, samples drawn
        since the change)`` only, identical on every engine.
        """
        if not 0.0 <= probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        with self._lock:
            if probability != self.drop_probability:
                self._rng.bit_generator.state = self._pristine_state
            self.drop_probability = probability

    def should_drop(self) -> bool:
        """Sample whether the next message is lost."""
        with self._lock:
            if self.drop_probability <= 0.0:
                return False
            return bool(self._rng.random() < self.drop_probability)

    # ------------------------------------------------------------------ #
    def set_partition(self, islands: Union[Sequence[str], Sequence[Sequence[str]]]) -> None:
        """Split the network: each island loses contact with everything else.

        ``islands`` is either one island (a flat list of node ids) or a list
        of islands.  Nodes not named in any island stay on the mainland and
        keep talking to each other; traffic crossing any island boundary is
        silently lost until :meth:`heal_partition`.
        """
        if islands and isinstance(islands[0], str):
            islands = [islands]  # a single island was passed flat
        mapping: Dict[str, int] = {}
        for group_index, island in enumerate(islands, start=1):
            if not island:
                raise ValueError("partition islands must be non-empty")
            for node_id in island:
                if not isinstance(node_id, str) or not node_id:
                    raise ValueError("partition islands must contain node ids")
                if node_id in mapping:
                    raise ValueError(f"node '{node_id}' appears in two partition islands")
                mapping[node_id] = group_index
        with self._lock:
            self._partition = mapping

    def heal_partition(self) -> None:
        """Reconnect every partition island to the mainland."""
        with self._lock:
            self._partition = {}

    def is_unreachable(self, source: str, destination: str) -> bool:
        """Whether a message from ``source`` to ``destination`` crosses a cut."""
        with self._lock:
            if not self._partition:
                return False
            return self._partition.get(source, 0) != self._partition.get(destination, 0)

    def partition_islands(self) -> List[List[str]]:
        """The currently configured islands (sorted, for introspection)."""
        with self._lock:
            groups: Dict[int, List[str]] = {}
            for node_id, group in self._partition.items():
                groups.setdefault(group, []).append(node_id)
            return [sorted(groups[g]) for g in sorted(groups)]

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Restore the pristine post-construction state.

        Clears crashes, stragglers, the drop rate *and* any partition, and
        re-seeds the drop RNG, so a reset injector behaves bit-identically to
        a freshly constructed one.
        """
        with self._lock:
            self.crashed.clear()
            self.straggler_factors.clear()
            self.drop_probability = 0.0
            self._partition = {}
            self._rng.bit_generator.state = self._pristine_state
