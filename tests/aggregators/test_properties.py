"""Property-based tests (hypothesis) for the GAR invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.aggregators import MDA, Bulyan, Median, MultiKrum, TrimmedMean, init
from repro.aggregators.base import GAR_REGISTRY


def vector_lists(min_vectors, max_vectors=9, dim=5):
    return st.integers(min_value=min_vectors, max_value=max_vectors).flatmap(
        lambda q: st.lists(
            arrays(
                dtype=np.float64,
                shape=(dim,),
                elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=q,
            max_size=q,
        )
    )


@settings(max_examples=40, deadline=None)
@given(vectors=vector_lists(3))
def test_median_within_coordinate_bounds(vectors):
    out = Median(n=len(vectors), f=1).aggregate(vectors)
    stacked = np.stack(vectors)
    assert (out <= stacked.max(axis=0) + 1e-9).all()
    assert (out >= stacked.min(axis=0) - 1e-9).all()


# ---------------------------------------------------------------------- #
# One selection order: the output depends on the multiset of rows only
# ---------------------------------------------------------------------- #
#: Rules that rank or sort rows before they sum any: bitwise order-free.
ORDER_FREE_GARS = ("krum", "multi-krum", "mda", "median", "trimmed-mean", "meamed", "bulyan")
#: Rules that sum every row in arrival order: order-free up to round-off only.
ARRIVAL_ORDER_SUMS = ("average", "geometric-median")


def assert_permutation_invariant(name, matrix, permutation):
    gar = init(name, n=matrix.shape[0], f=1)
    forward, permuted = gar.aggregate_matrix(matrix), gar.aggregate_matrix(matrix[permutation])
    if name in ARRIVAL_ORDER_SUMS:
        assert np.allclose(forward, permuted, rtol=1e-12, atol=1e-12), name
    else:
        assert np.array_equal(forward, permuted), name


@pytest.mark.parametrize("name", ORDER_FREE_GARS + ARRIVAL_ORDER_SUMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_permuting_the_rows_does_not_move_the_output(name, data):
    quorum = GAR_REGISTRY[name].minimum_inputs(1)
    vectors = data.draw(vector_lists(quorum))
    permutation = data.draw(st.permutations(range(len(vectors))))
    assert_permutation_invariant(name, np.stack(vectors), np.asarray(permutation))


def tied_matrices(rows, dimension, rng):
    """Inputs where scores, distances and column values tie exactly."""
    integer = np.rint(2.0 * rng.standard_normal((rows, dimension)))
    duplicated = rng.standard_normal((rows, dimension))
    duplicated[rows // 2 :] = duplicated[: rows - rows // 2]
    # Pairs c + o and c - o (and c itself when the count is odd): the set is its
    # own reflection through c, so each pair ties on every score, exactly.
    centre = np.rint(4.0 * rng.standard_normal(dimension))
    offsets = np.rint(4.0 * rng.standard_normal((rows // 2, dimension)))
    mirrored = centre + np.concatenate([offsets, -offsets, np.zeros((rows % 2, dimension))])
    return {"integer": integer, "duplicated-row": duplicated, "mirrored-pair": mirrored}


@pytest.mark.parametrize("name", ORDER_FREE_GARS + ARRIVAL_ORDER_SUMS)
@pytest.mark.parametrize("dimension", (1, 2, 37))
def test_exact_ties_resolve_by_value_not_by_arrival(name, dimension):
    """A Byzantine sender controls its latency, hence its row index: with
    exact ties no rule may let that index pick the output."""
    rng = np.random.default_rng([dimension, len(name)])
    for extra in (0, 1, 2):
        rows = GAR_REGISTRY[name].minimum_inputs(1) + extra
        for kind, matrix in tied_matrices(rows, dimension, rng).items():
            for _ in range(12):
                assert_permutation_invariant(name, matrix, rng.permutation(rows))


@settings(max_examples=40, deadline=None)
@given(vectors=vector_lists(5))
def test_krum_returns_an_input(vectors):
    out = init("krum", n=len(vectors), f=1).aggregate(vectors)
    assert any(np.allclose(out, v) for v in vectors)


@settings(max_examples=40, deadline=None)
@given(vectors=vector_lists(5))
def test_multikrum_output_in_coordinate_bounds(vectors):
    # Multi-Krum averages a subset of the inputs, so every coordinate of the
    # output must lie within the coordinate-wise range of the inputs.
    out = MultiKrum(n=len(vectors), f=1).aggregate(vectors)
    stacked = np.stack(vectors)
    assert (out <= stacked.max(axis=0) + 1e-9).all()
    assert (out >= stacked.min(axis=0) - 1e-9).all()


@settings(max_examples=40, deadline=None)
@given(vectors=vector_lists(3, max_vectors=7))
def test_mda_output_in_convex_hull_bounds(vectors):
    out = MDA(n=len(vectors), f=1).aggregate(vectors)
    stacked = np.stack(vectors)
    assert (out <= stacked.max(axis=0) + 1e-9).all()
    assert (out >= stacked.min(axis=0) - 1e-9).all()


@settings(max_examples=30, deadline=None)
@given(vectors=vector_lists(7, max_vectors=9))
def test_bulyan_output_in_coordinate_bounds(vectors):
    out = Bulyan(n=len(vectors), f=1).aggregate(vectors)
    stacked = np.stack(vectors)
    assert (out <= stacked.max(axis=0) + 1e-9).all()
    assert (out >= stacked.min(axis=0) - 1e-9).all()


@settings(max_examples=40, deadline=None)
@given(vectors=vector_lists(3))
def test_trimmed_mean_within_bounds(vectors):
    out = TrimmedMean(n=len(vectors), f=1).aggregate(vectors)
    stacked = np.stack(vectors)
    assert (out <= stacked.max(axis=0) + 1e-9).all()
    assert (out >= stacked.min(axis=0) - 1e-9).all()


@settings(max_examples=25, deadline=None)
@given(
    honest=arrays(
        dtype=np.float64,
        shape=(6, 4),
        elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    ),
    attack_scale=st.floats(min_value=10.0, max_value=1e6),
)
def test_robust_gars_bound_influence_of_one_byzantine(honest, attack_scale):
    """One arbitrarily large malicious vector cannot drag the output outside the honest range."""
    malicious = np.full(4, attack_scale)
    vectors = [row for row in honest] + [malicious]
    stacked = honest
    for name in ["median", "mda", "trimmed-mean"]:
        out = init(name, n=len(vectors), f=1).aggregate(vectors)
        assert (out <= stacked.max(axis=0) + 1e-6).all()
        assert (out >= stacked.min(axis=0) - 1e-6).all()


@settings(max_examples=25, deadline=None)
@given(
    scale=st.floats(min_value=0.1, max_value=10.0),
    shift=st.floats(min_value=-5.0, max_value=5.0),
)
def test_median_equivariant_under_affine_maps(scale, shift):
    rng = np.random.default_rng(0)
    vectors = [rng.normal(size=6) for _ in range(5)]
    gar = Median(n=5, f=1)
    base = gar.aggregate(vectors)
    transformed = gar.aggregate([scale * v + shift for v in vectors])
    assert np.allclose(transformed, scale * base + shift, atol=1e-8)


@pytest.mark.parametrize("name", ["median", "multi-krum", "mda", "bulyan", "trimmed-mean", "average"])
def test_all_gars_idempotent_on_identical_inputs(name):
    f = 1
    n = max(7, init(name, n=20, f=f).minimum_inputs(f))
    gar = init(name, n=n, f=f)
    vector = np.linspace(-1, 1, 8)
    out = gar.aggregate([vector.copy() for _ in range(n)])
    assert np.allclose(out, vector)


# ---------------------------------------------------------------------- #
# Quorum-boundary properties: what happens when a chaos scenario shrinks the
# live-worker count to exactly the n - f asynchronous quorum (the regime
# exercised by the bundled `crash_quorum_edge` / `churn_at_f_bound`
# scenarios).  At the boundary the GAR receives exactly `minimum_inputs(f)`
# gradients — its resilience precondition must still hold, with no slack.
# ---------------------------------------------------------------------- #

#: Every registered rule except the non-robust averaging baseline.
ROBUST_GARS = sorted(set(GAR_REGISTRY) - {"average"})

#: Rules whose output is coordinate-wise bounded by the honest inputs even
#: with f adversarial inputs present (selection/trimming based).
COORDINATE_BOUNDED_GARS = ["median", "mda", "trimmed-mean", "bulyan", "meamed"]


@pytest.mark.parametrize("name", ROBUST_GARS)
@settings(max_examples=20, deadline=None)
@given(f=st.integers(min_value=1, max_value=2), seed=st.integers(min_value=0, max_value=500))
def test_gar_accepts_exactly_minimum_inputs_at_quorum_boundary(name, f, seed):
    """At q == minimum_inputs(f) the rule must still aggregate successfully."""
    cls = GAR_REGISTRY[name]
    quorum = cls.minimum_inputs(f)
    gar = init(name, n=quorum, f=f)
    rng = np.random.default_rng(seed)
    honest = [rng.normal(size=6) for _ in range(quorum - f)]
    malicious = [rng.normal(size=6) * 1e4 for _ in range(f)]
    out = gar.aggregate(honest + malicious)
    assert out.shape == (6,)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("name", COORDINATE_BOUNDED_GARS)
@settings(max_examples=20, deadline=None)
@given(
    f=st.integers(min_value=1, max_value=2),
    attack_scale=st.floats(min_value=10.0, max_value=1e6),
    seed=st.integers(min_value=0, max_value=500),
)
def test_boundary_quorum_still_bounds_byzantine_influence(name, f, attack_scale, seed):
    """Even with zero slack above the precondition, f malicious inputs cannot
    drag the output outside the honest coordinate range."""
    cls = GAR_REGISTRY[name]
    quorum = cls.minimum_inputs(f)
    gar = init(name, n=quorum, f=f)
    rng = np.random.default_rng(seed)
    honest = [rng.normal(size=5) for _ in range(quorum - f)]
    malicious = [np.full(5, attack_scale) for _ in range(f)]
    out = gar.aggregate(honest + malicious)
    stacked = np.stack(honest)
    assert (out <= stacked.max(axis=0) + 1e-6).all()
    assert (out >= stacked.min(axis=0) - 1e-6).all()


@pytest.mark.parametrize("name", ROBUST_GARS)
def test_gar_rejects_one_below_the_boundary(name):
    """One gradient short of the precondition must fail loudly, not silently."""
    from repro.exceptions import AggregationError

    cls = GAR_REGISTRY[name]
    f = 1
    quorum = cls.minimum_inputs(f)
    if quorum <= 1:
        pytest.skip("rule degenerates to a single input")
    gar = init(name, n=quorum, f=f)
    vectors = [np.ones(4) * i for i in range(quorum - 1)]
    with pytest.raises(AggregationError):
        gar.aggregate(vectors)


@pytest.mark.parametrize("name", ["median", "mda", "trimmed-mean"])
def test_scenario_shrinks_live_workers_to_exact_quorum_boundary(name):
    """End to end: a scenario crashes f workers so the server collects exactly
    the n - f quorum, and the GAR still aggregates what arrives."""
    from repro.core import ClusterConfig, Controller
    from repro.core.scenario import ScenarioDirector, ScenarioEvent, ScenarioSpec

    f = 2
    cls = GAR_REGISTRY[name]
    quorum = cls.minimum_inputs(f)
    num_workers = quorum + f  # async quorum n - f lands exactly on the minimum
    config = ClusterConfig(
        deployment="ssmw",
        asynchronous=True,
        num_workers=num_workers,
        num_byzantine_workers=f,
        gradient_gar=name,
        model="logistic",
        dataset_size=120,
        batch_size=8,
        num_iterations=2,
        seed=23,
    )
    deployment = Controller(config).build()
    spec = ScenarioSpec(
        name=f"shrink-{name}",
        events=[
            ScenarioEvent(round=0, action="crash", target=f"worker-{i}") for i in range(f)
        ],
    )
    director = ScenarioDirector(spec, deployment)
    director.apply(0)

    server = deployment.servers[0]
    gradients = server.get_gradient_matrix(0, config.gradient_quorum())
    assert len(gradients) == quorum == config.gradient_quorum()
    gar = deployment.gradient_gar
    out = gar(gradients=gradients, f=f)
    assert np.all(np.isfinite(out))
    assert (out <= gradients.max(axis=0) + 1e-9).all()
    assert (out >= gradients.min(axis=0) - 1e-9).all()
