"""Property suite for the deterministic contiguous shard map.

Every node derives the same split locally from ``(dimension, num_shards)``,
so the partition itself is the protocol: the properties below pin that the
slices are disjoint, cover ``[0, d)`` exactly, absorb uneven remainders into
the leading shards (sizes differ by at most one) — over randomized
``(d, n_ps)`` including ``d < n_ps`` rejection.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.sharding import ShardMap

pytestmark = pytest.mark.sharding


@settings(max_examples=100, deadline=None)
@given(dimension=st.integers(1, 5_000), num_shards=st.integers(1, 64))
def test_slices_are_disjoint_and_cover_the_vector(dimension, num_shards):
    if num_shards > dimension:
        with pytest.raises(ConfigurationError):
            ShardMap(dimension, num_shards)
        return
    shard_map = ShardMap(dimension, num_shards)
    coverage = np.zeros(dimension, dtype=np.int64)
    for _, sl in shard_map:
        coverage[sl] += 1
    assert np.array_equal(coverage, np.ones(dimension, dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(dimension=st.integers(1, 5_000), num_shards=st.integers(1, 64))
def test_sizes_are_contiguous_balanced_and_ordered(dimension, num_shards):
    if num_shards > dimension:
        return
    shard_map = ShardMap(dimension, num_shards)
    sizes = shard_map.sizes
    assert len(sizes) == num_shards == len(shard_map)
    assert sum(sizes) == dimension
    # Remainders land on the leading shards: sizes differ by at most one and
    # never increase along the shard order.
    assert max(sizes) - min(sizes) <= 1
    assert list(sizes) == sorted(sizes, reverse=True)
    assert shard_map.max_size == sizes[0] == shard_map.size(0)
    # Contiguity: each shard starts where the previous one stopped.
    stop = 0
    for shard in range(num_shards):
        start, end = shard_map.bounds(shard)
        assert start == stop
        assert end - start == sizes[shard]
        stop = end
    assert stop == dimension


def test_invalid_shapes_are_rejected():
    with pytest.raises(ConfigurationError):
        ShardMap(0, 1)
    with pytest.raises(ConfigurationError):
        ShardMap(10, 0)
    with pytest.raises(ConfigurationError):
        ShardMap(3, 4)  # d < n_ps: some owner would hold an empty slice


def test_remainder_example_is_front_loaded():
    # d=10 over 3 owners: 4 + 3 + 3, in order.
    shard_map = ShardMap(10, 3)
    assert shard_map.sizes == (4, 3, 3)
    assert [shard_map.bounds(s) for s in range(3)] == [(0, 4), (4, 7), (7, 10)]
