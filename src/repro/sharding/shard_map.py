"""Deterministic contiguous partition of the flat parameter vector.

A :class:`ShardMap` splits the ``d`` coordinates of the flat ``data`` /
``grad`` buffer (see :class:`repro.nn.parameters.FlatParameterView`) into
``num_shards`` contiguous slices, one per shard owner.  The split is a pure
function of ``(dimension, num_shards)`` — every node of a deployment derives
the identical map locally, so no coordination round is ever spent agreeing on
shard boundaries.

Remainders are assigned deterministically: with ``d = num_shards * base + r``
the first ``r`` shards receive ``base + 1`` coordinates and the rest receive
``base``.  Empty shards are rejected outright (``num_shards > dimension``
raises), because an owner with zero coordinates would still participate in
the two-phase distance protocol while contributing nothing — a silent waste
that almost always indicates a misconfigured ``--shards``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ShardMap:
    """Contiguous split of ``dimension`` coordinates across ``num_shards`` owners."""

    dimension: int
    num_shards: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ConfigurationError("ShardMap needs a positive dimension")
        if self.num_shards < 1:
            raise ConfigurationError("ShardMap needs at least one shard")
        if self.num_shards > self.dimension:
            raise ConfigurationError(
                f"cannot split {self.dimension} coordinates into {self.num_shards} "
                "shards without creating empty shards"
            )

    # ------------------------------------------------------------------ #
    # Boundary math
    # ------------------------------------------------------------------ #
    def bounds(self, shard: int) -> Tuple[int, int]:
        """Half-open ``[start, stop)`` coordinate range of ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"shard {shard} out of range for a {self.num_shards}-shard map"
            )
        base, remainder = divmod(self.dimension, self.num_shards)
        start = shard * base + min(shard, remainder)
        stop = start + base + (1 if shard < remainder else 0)
        return start, stop

    def slice_for(self, shard: int) -> slice:
        """The :class:`slice` selecting ``shard``'s coordinates."""
        start, stop = self.bounds(shard)
        return slice(start, stop)

    def size(self, shard: int) -> int:
        start, stop = self.bounds(shard)
        return stop - start

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Per-shard coordinate counts (sums to ``dimension``)."""
        return tuple(self.size(shard) for shard in range(self.num_shards))

    @property
    def max_size(self) -> int:
        """The largest shard — the critical-path slice for parallel owners."""
        return self.size(0)  # remainders go to the leading shards

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_shards

    def __iter__(self) -> Iterator[Tuple[int, slice]]:
        for shard in range(self.num_shards):
            yield shard, self.slice_for(shard)

    def slices(self) -> List[slice]:
        return [self.slice_for(shard) for shard in range(self.num_shards)]
