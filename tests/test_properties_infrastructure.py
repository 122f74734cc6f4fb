"""Property-based tests (hypothesis) for the infrastructure layers.

These complement the GAR property tests: round-trip invariants for
serialization and flat-parameter handling, conservation invariants for dataset
partitioning, and quorum invariants for the transport.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.datasets.partition import partition_iid, partition_non_iid
from repro.datasets.synthetic import make_classification
from repro.network.serialization import deserialize_vector, serialize_vector
from repro.nn.layers import Parameter
from repro.nn.parameters import attach_flat_view


@settings(max_examples=50, deadline=None)
@given(
    vector=arrays(
        dtype=np.float64,
        shape=st.integers(min_value=0, max_value=2_000),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
)
def test_serialization_roundtrip_is_identity(vector):
    assert np.allclose(deserialize_vector(serialize_vector(vector)), vector)


@settings(max_examples=30, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**16),
)
def test_flatten_unflatten_roundtrip(shapes, seed):
    """Parameters -> flat vector -> parameters, through the one view tier."""
    rng = np.random.default_rng(seed)
    arrays_in = [rng.normal(size=shape) for shape in shapes]
    parameters = [Parameter(a.copy()) for a in arrays_in]
    view = attach_flat_view(parameters)
    flat = view.parameter_vector()
    assert flat.size == sum(a.size for a in arrays_in)
    assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays_in]))
    target = rng.normal(size=flat.size)
    view.set_parameters(target)
    offset = 0
    for original, param in zip(arrays_in, parameters):
        assert param.shape == original.shape
        assert np.array_equal(param.data.ravel(), target[offset : offset + param.size])
        offset += param.size


@settings(max_examples=20, deadline=None)
@given(
    num_examples=st.integers(min_value=40, max_value=200),
    num_workers=st.integers(min_value=2, max_value=8),
    seed=st.integers(0, 1000),
)
def test_iid_partition_conserves_examples(num_examples, num_workers, seed):
    dataset = make_classification(num_examples, (1, 2, 2), num_classes=4, seed=seed)
    shards = partition_iid(dataset, num_workers, seed=seed)
    assert sum(len(s) for s in shards) == num_examples
    assert all(len(s) >= 1 for s in shards)
    # Class counts are conserved across the union of shards.
    combined = np.concatenate([s.labels for s in shards])
    assert np.array_equal(np.bincount(combined, minlength=4), np.bincount(dataset.labels, minlength=4))


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=10.0),
    seed=st.integers(0, 1000),
)
def test_non_iid_partition_conserves_examples(alpha, seed):
    dataset = make_classification(120, (1, 2, 2), num_classes=5, seed=3)
    shards = partition_non_iid(dataset, 5, alpha=alpha, seed=seed)
    assert sum(len(s) for s in shards) == 120
    assert all(len(s) >= 1 for s in shards)


@settings(max_examples=20, deadline=None)
@given(
    num_peers=st.integers(min_value=2, max_value=8),
    quorum_fraction=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(0, 1000),
)
def test_pull_many_returns_sorted_quorum(num_peers, quorum_fraction, seed):
    from repro.network.transport import LinkModel, Transport

    transport = Transport(link=LinkModel(base_latency=1e-4, jitter=1e-4), seed=seed)
    for index in range(num_peers + 1):
        node_id = f"n{index}"
        transport.register_node(node_id, object())
        transport.register_handler(node_id, "x", lambda ctx, i=index: np.full(3, float(i)))
    peers = [f"n{i}" for i in range(1, num_peers + 1)]
    quorum = max(1, int(round(quorum_fraction * num_peers)))
    replies, elapsed = transport.pull_many("n0", peers, "x", quorum=quorum)
    assert len(replies) == quorum
    latencies = [r.latency for r in replies]
    assert latencies == sorted(latencies)
    assert elapsed == latencies[-1]
