"""Sharded parameter-server tier: slice-wise scatter and shard-parallel GARs.

This package partitions the flat ``data``/``grad`` vector (the unit of
ownership since :class:`repro.nn.parameters.FlatParameterView`) into
contiguous per-owner slices and aggregates shard-by-shard:

* :class:`ShardMap` — the deterministic contiguous split, derived locally by
  every node from ``(dimension, num_shards)``;
* :class:`ShardedRoundBuffer` — per-shard reply staging that only ever
  materializes one ``(q, d_shard)`` slice at a time;
* :mod:`repro.sharding.aggregation` — coordinate-wise rules applied per
  slice (bitwise-exact) and the two-phase partial-distance protocol that
  runs any :class:`~repro.aggregators.base.DistanceGAR`'s own ``select`` /
  ``combine`` (Krum / Multi-Krum / MDA / Bulyan).

Enable it with ``ClusterConfig.shards`` (CLI ``--shards``) on the MSMW
deployment; see ``docs/sharding.md`` for the protocol, its equality argument
and the memory/throughput economics.
"""

from repro.sharding.aggregation import (
    aggregate_shards,
    combine_partial_distances,
    partial_squared_distances,
    sharded_aggregate_matrix,
    supports_sharding,
)
from repro.sharding.buffers import ShardedRoundBuffer
from repro.sharding.shard_map import ShardMap

__all__ = [
    "ShardMap",
    "ShardedRoundBuffer",
    "aggregate_shards",
    "combine_partial_distances",
    "partial_squared_distances",
    "sharded_aggregate_matrix",
    "supports_sharding",
]
