"""Shard-parallel aggregation equals whole-vector aggregation.

Two families, two guarantees:

* coordinate-wise GARs (average, median, trimmed-mean, meamed) shard with no
  semantic change — bitwise-equal at any shard width >= 2; at width 1 the
  mean-based rules differ from the unsharded result only in the last ulp
  (numpy reduces a ``(q, 1)`` column with a different summation order than a
  column inside a wider axis-0 reduction) while median stays exact at any
  width;
* distance-based GARs (Krum, Multi-Krum, MDA, Bulyan) run the two-phase
  protocol — per-shard partial pairwise squared distances, summed into the
  global matrix, selection broadcast back — and the selected indices are
  bitwise-equal to unsharded selection on random matrices, hence the combined
  vectors are too (given the width->=2 caveat for Bulyan's trimmed mean).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregators.base import GAR_REGISTRY, DistanceGAR, pairwise_squared_distances
from repro.sharding import (
    ShardMap,
    ShardedRoundBuffer,
    combine_partial_distances,
    partial_squared_distances,
    sharded_aggregate_matrix,
    supports_sharding,
)

pytestmark = pytest.mark.sharding

#: The two sharding families, read off the registered classes.
COORDINATE_WISE_GARS = frozenset(n for n, cls in GAR_REGISTRY.items() if cls.coordinate_wise)
DISTANCE_GARS = frozenset(n for n, cls in GAR_REGISTRY.items() if issubclass(cls, DistanceGAR))


def make_gar(name: str, n: int, f: int):
    return GAR_REGISTRY[name](n=n, f=f)


def random_matrix(rng, rows, dimension):
    return rng.standard_normal((rows, dimension))


# ---------------------------------------------------------------------- #
# Registry contract
# ---------------------------------------------------------------------- #
def test_registry_partition_is_explicit():
    assert COORDINATE_WISE_GARS == {"average", "median", "trimmed-mean", "meamed"}
    assert DISTANCE_GARS == {"krum", "multi-krum", "mda", "bulyan"}
    assert COORDINATE_WISE_GARS & DISTANCE_GARS == frozenset()
    for name in GAR_REGISTRY:
        assert supports_sharding(name) == (name in COORDINATE_WISE_GARS | DISTANCE_GARS), name
    # Weiszfeld couples coordinates through the global norm: not shardable.
    assert "geometric-median" not in COORDINATE_WISE_GARS | DISTANCE_GARS
    assert not supports_sharding("geometric-median")
    assert not supports_sharding("no-such-rule")


# ---------------------------------------------------------------------- #
# Coordinate-wise family
# ---------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(COORDINATE_WISE_GARS)),
    rows=st.integers(5, 12),
    dimension=st.integers(2, 60),
    num_shards=st.integers(2, 6),
    f=st.integers(0, 1),
    seed=st.integers(0, 2**16),
)
def test_coordinate_wise_gars_shard_exactly(name, rows, dimension, num_shards, f, seed):
    if num_shards > dimension:
        return
    shard_map = ShardMap(dimension, num_shards)
    matrix = random_matrix(np.random.default_rng(seed), rows, dimension)
    gar = make_gar(name, rows, f)
    whole = gar.aggregate_matrix(matrix)
    sharded = sharded_aggregate_matrix(gar, matrix, shard_map, f=f)
    if name == "median" or min(shard_map.sizes) >= 2:
        assert np.array_equal(whole, sharded), (name, dimension, num_shards)
    else:
        # Width-1 slices of the mean family: reduction-order ulp only.
        np.testing.assert_allclose(sharded, whole, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------- #
# Two-phase distance protocol
# ---------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(DISTANCE_GARS)),
    dimension=st.integers(2, 60),
    num_shards=st.integers(2, 6),
    f=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_two_phase_selection_is_bitwise_equal(name, dimension, num_shards, f, seed):
    if num_shards > dimension:
        return
    rows = int(make_gar(name, 20, f).minimum_inputs(f)) + 2
    shard_map = ShardMap(dimension, num_shards)
    matrix = random_matrix(np.random.default_rng(seed), rows, dimension)
    gar = make_gar(name, rows, f)
    whole_distances = pairwise_squared_distances(matrix)
    np.fill_diagonal(whole_distances, 0.0)
    local = gar.select(whole_distances)
    distributed = gar.select(
        combine_partial_distances([partial_squared_distances(matrix[:, sl]) for _, sl in shard_map])
    )
    assert np.array_equal(local, distributed), (name, dimension, num_shards)
    whole = gar.aggregate_matrix(matrix)
    sharded = sharded_aggregate_matrix(gar, matrix, shard_map, f=f)
    if min(shard_map.sizes) >= 2:
        assert np.array_equal(whole, sharded), (name, dimension, num_shards)
    else:
        np.testing.assert_allclose(sharded, whole, rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(2, 10),
    dimension=st.integers(2, 80),
    num_shards=st.integers(2, 8),
    seed=st.integers(0, 2**16),
)
def test_partial_distances_sum_to_the_global_matrix(rows, dimension, num_shards, seed):
    if num_shards > dimension:
        return
    shard_map = ShardMap(dimension, num_shards)
    matrix = random_matrix(np.random.default_rng(seed), rows, dimension)
    partials = [partial_squared_distances(matrix[:, sl]) for _, sl in shard_map]
    combined = combine_partial_distances(partials)
    deltas = matrix[:, None, :] - matrix[None, :, :]
    reference = np.einsum("ijk,ijk->ij", deltas, deltas)
    assert combined.shape == (rows, rows)
    assert np.array_equal(np.diag(combined), np.zeros(rows))
    assert np.array_equal(combined, combined.T)
    np.testing.assert_allclose(combined, reference, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------- #
# The staging buffer
# ---------------------------------------------------------------------- #
def test_sharded_round_buffer_materializes_slices_without_full_residency():
    dimension, capacity, num_shards = 101, 7, 3
    shard_map = ShardMap(dimension, num_shards)
    buffer = ShardedRoundBuffer(capacity, shard_map)
    rng = np.random.default_rng(0)
    rows = random_matrix(rng, capacity, dimension)
    buffer.reset()
    for index, row in enumerate(rows):
        buffer.write_row(index, row)
    for shard, sl in shard_map:
        block = buffer.materialize(shard)
        assert np.array_equal(block, rows[:, sl])
        assert not block.flags.writeable
    # The backing store holds one (capacity, widest-shard) block — never the
    # full (capacity, d) matrix.
    assert buffer.resident_nbytes == capacity * shard_map.max_size * 8
    assert buffer.resident_nbytes < capacity * dimension * 8 / (num_shards - 1)


def test_sharded_round_buffer_partial_rounds_track_row_count():
    shard_map = ShardMap(10, 2)
    buffer = ShardedRoundBuffer(4, shard_map)
    rng = np.random.default_rng(1)
    rows = random_matrix(rng, 3, 10)
    buffer.reset()
    for index, row in enumerate(rows):
        buffer.write_row(index, row)
    assert buffer.rows == 3
    assert buffer.materialize(1).shape == (3, 5)
    buffer.reset()
    assert buffer.rows == 0
