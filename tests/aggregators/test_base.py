"""Tests for the GAR registry, interface and resilience conditions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregators import (
    Average,
    Bulyan,
    Krum,
    MDA,
    Median,
    MultiKrum,
    TrimmedMean,
    available_gars,
    init,
)
from repro.aggregators.base import as_matrix, pairwise_squared_distances
from repro.exceptions import AggregationError, ResilienceConditionError


class TestRegistry:
    def test_all_paper_gars_registered(self):
        names = available_gars()
        for expected in ["average", "median", "krum", "multi-krum", "mda", "bulyan"]:
            assert expected in names

    def test_init_builds_correct_class(self):
        assert isinstance(init("median", n=5, f=1), Median)
        assert isinstance(init("multi-krum", n=9, f=2), MultiKrum)
        assert isinstance(init("bulyan", n=11, f=2), Bulyan)
        assert isinstance(init("mda", n=5, f=1), MDA)
        assert isinstance(init("average", n=3), Average)
        assert isinstance(init("trimmed-mean", n=5, f=1), TrimmedMean)

    def test_init_accepts_underscore_names(self):
        assert isinstance(init("multi_krum", n=9, f=2), MultiKrum)

    def test_init_unknown_name(self):
        with pytest.raises(AggregationError):
            init("quantum-median", n=5, f=1)


class TestResilienceConditions:
    @pytest.mark.parametrize(
        "cls, f, minimum",
        [
            (Median, 1, 3),
            (Median, 3, 7),
            (Krum, 1, 5),
            (MultiKrum, 3, 9),
            (MDA, 2, 5),
            (Bulyan, 1, 7),
            (Bulyan, 3, 15),
            (TrimmedMean, 2, 5),
        ],
    )
    def test_minimum_inputs_formulas(self, cls, f, minimum):
        assert cls.minimum_inputs(f) == minimum

    def test_constructing_undersized_gar_raises(self):
        with pytest.raises(ResilienceConditionError):
            Median(n=2, f=1)
        with pytest.raises(ResilienceConditionError):
            MultiKrum(n=4, f=1)
        with pytest.raises(ResilienceConditionError):
            Bulyan(n=6, f=1)

    def test_negative_f_rejected(self):
        with pytest.raises(ResilienceConditionError):
            Median(n=5, f=-1)

    def test_non_positive_n_rejected(self):
        with pytest.raises(ResilienceConditionError):
            Average(n=0, f=0)

    def test_aggregate_with_too_few_inputs_raises(self):
        gar = Median(n=5, f=2)
        with pytest.raises(AggregationError):
            gar.aggregate([np.zeros(3)] * 3)


class TestMatrixHelpers:
    def test_as_matrix_stacks(self):
        matrix = as_matrix([np.arange(3), np.arange(3) + 1])
        assert matrix.shape == (2, 3)

    def test_as_matrix_flattens_nd_inputs(self):
        matrix = as_matrix([np.zeros((2, 2)), np.ones((2, 2))])
        assert matrix.shape == (2, 4)

    def test_as_matrix_empty(self):
        with pytest.raises(AggregationError):
            as_matrix([])

    def test_as_matrix_dimension_mismatch(self):
        with pytest.raises(AggregationError):
            as_matrix([np.zeros(3), np.zeros(4)])

    def test_pairwise_distances(self):
        matrix = np.array([[0.0, 0.0], [3.0, 4.0]])
        distances = pairwise_squared_distances(matrix)
        assert distances[0, 1] == pytest.approx(25.0)
        assert distances[0, 0] == pytest.approx(0.0)

    def test_pairwise_distances_non_negative(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(6, 10))
        assert (pairwise_squared_distances(matrix) >= 0).all()


class TestFunctionalCall:
    def test_call_form_matches_listings(self):
        gar = init("median", n=5, f=1)
        gradients = [np.full(4, float(i)) for i in range(5)]
        out = gar(gradients=gradients, f=1)
        assert np.allclose(out, 2.0)

    def test_call_with_different_f_revalidates(self):
        gar = init("median", n=7, f=1)
        with pytest.raises(ResilienceConditionError):
            gar(gradients=[np.zeros(2)] * 3, f=2)

    def test_flops_positive_and_monotone_in_d(self):
        for name in available_gars():
            f = 1
            gar = init(name, n=max(7, init(name, n=100, f=f).minimum_inputs(f)), f=f)
            assert gar.flops(1000) > 0
            assert gar.flops(10_000) > gar.flops(1000)


class TestMatrixFastPath:
    """The zero-copy (q, d) matrix entry points added by the flat pipeline."""

    def test_as_matrix_short_circuits_contiguous_float64(self):
        matrix = np.random.default_rng(0).normal(size=(4, 6))
        assert as_matrix(matrix) is matrix

    def test_as_matrix_short_circuit_preserves_readonly_flag(self):
        matrix = np.zeros((3, 4))
        matrix.setflags(write=False)
        assert as_matrix(matrix) is matrix

    def test_as_matrix_converts_wrong_dtype(self):
        matrix = np.ones((3, 4), dtype=np.float32)
        out = as_matrix(matrix)
        assert out.dtype == np.float64 and out.shape == (3, 4)

    def test_as_matrix_rejects_wrong_ndim(self):
        with pytest.raises(AggregationError):
            as_matrix(np.zeros(5))
        with pytest.raises(AggregationError):
            as_matrix(np.zeros((2, 3, 4)))

    def test_as_matrix_rejects_empty_matrix(self):
        with pytest.raises(AggregationError):
            as_matrix(np.zeros((0, 4)))

    def test_aggregate_matrix_equals_aggregate_list(self):
        rng = np.random.default_rng(1)
        vectors = [rng.normal(size=12) for _ in range(9)]
        matrix = np.stack(vectors)
        for name in available_gars():
            gar = init(name, n=9, f=1)
            assert np.array_equal(gar.aggregate(vectors), gar.aggregate_matrix(matrix)), name

    def test_aggregate_accepts_matrix_directly(self):
        matrix = np.arange(15.0).reshape(5, 3)
        out = init("median", n=5, f=1).aggregate(matrix)
        assert np.allclose(out, np.median(matrix, axis=0))

    def test_aggregate_matrix_quorum_validation(self):
        gar = Median(n=5, f=2)
        with pytest.raises(AggregationError):
            gar.aggregate_matrix(np.zeros((3, 4)))


class TestFunctionalCallConstruction:
    def test_clone_constructed_exactly_once(self):
        """Regression: the f-override path used to build the clone GAR twice."""
        constructions = []

        class CountingMedian(Median):
            name = "counting-median"

            def __init__(self, n, f=0):
                constructions.append((n, f))
                super().__init__(n, f)

        gar = CountingMedian(n=5, f=1)
        assert constructions == [(5, 1)]
        gradients = [np.full(4, float(i)) for i in range(5)]
        out = gar(gradients=gradients, f=2)
        # Exactly one clone for the f=2 re-validation — not two.
        assert constructions == [(5, 1), (5, 2)]
        assert np.allclose(out, 2.0)

    def test_same_f_does_not_construct_a_clone(self):
        constructions = []

        class CountingMedian(Median):
            name = "counting-median-2"

            def __init__(self, n, f=0):
                constructions.append((n, f))
                super().__init__(n, f)

        gar = CountingMedian(n=5, f=1)
        gar(gradients=[np.full(4, float(i)) for i in range(5)], f=1)
        assert constructions == [(5, 1)]


class TestResized:
    """One sizing rule (``GAR.resized``) behind ``__call__``, the round strategy and the shards."""

    def test_returns_self_when_nothing_changes(self):
        gar = init("multi-krum", n=9, f=2)
        assert gar.resized(9) is gar
        assert gar.resized(9, 2) is gar

    def test_follows_the_row_count_and_f(self):
        gar = init("multi-krum", n=8, f=2)
        shrunk = gar.resized(7, 2)
        assert (type(shrunk), shrunk.n, shrunk.f, shrunk.m) == (MultiKrum, 7, 2, 5)
        assert (gar.n, gar.m) == (8, 6)
        relaxed = gar.resized(8, 1)
        assert (relaxed.n, relaxed.f, relaxed.m) == (8, 1, 7)

    def test_shrunk_pull_set_is_not_scored_by_the_full_quorum_rule(self):
        """Regression: 7 rows reached a Multi-Krum built for n=8 (m=6), so with
        f=2 one Byzantine row was averaged in."""
        honest = 1.0 + 0.01 * np.arange(5.0)[:, None] * np.ones((5, 4))
        matrix = np.vstack([honest, np.full((2, 4), -20.0)])
        out = init("multi-krum", n=8, f=2)(gradients=matrix, f=2)
        assert (honest.min(axis=0) <= out).all() and (out <= honest.max(axis=0)).all()

    def test_a_new_f_the_rows_cannot_carry_is_a_resilience_error(self):
        gar = init("krum", n=7, f=1)
        with pytest.raises(ResilienceConditionError):
            gar.resized(7, 3)
        with pytest.raises(ResilienceConditionError):
            gar(gradients=np.zeros((7, 2)), f=3)

    def test_too_few_rows_for_an_unchanged_f_is_an_aggregation_error(self):
        gar = init("krum", n=7, f=2)
        assert gar.resized(6, 2) is gar
        with pytest.raises(AggregationError):
            gar(gradients=np.zeros((6, 2)), f=2)
        with pytest.raises(AggregationError):
            gar(gradients=np.zeros((6, 2)))

    def test_never_aggregates_under_a_smaller_f_than_requested(self):
        for rows in range(1, 12):
            for f in range(0, 4):
                try:
                    sized = init("bulyan", n=11, f=2).resized(rows, f)
                except ResilienceConditionError:
                    continue
                assert sized.f == f


DISTANCE_RULES = ("krum", "multi-krum", "mda", "bulyan")


def test_one_distance_matrix_per_aggregation(monkeypatch):
    """Distances are computed once per aggregation and kept nowhere."""
    from repro.aggregators import DistanceGAR, base
    from repro.sharding import ShardMap, aggregation, sharded_aggregate_matrix

    calls = {"pairwise": 0, "gram": 0}
    pairwise, gram = base.pairwise_squared_distances, base.gram_squared_distances

    def counting_pairwise(matrix):
        calls["pairwise"] += 1
        return pairwise(matrix)

    def counting_gram(matrix):
        calls["gram"] += 1
        return gram(matrix)

    monkeypatch.setattr(base, "pairwise_squared_distances", counting_pairwise)
    monkeypatch.setattr(base, "gram_squared_distances", counting_gram)
    monkeypatch.setattr(aggregation, "gram_squared_distances", counting_gram)

    matrix = np.random.default_rng(4).normal(size=(13, 24))
    matrix.setflags(write=False)
    shard_map = ShardMap(24, 3)
    for name in DISTANCE_RULES:
        gar = init(name, n=13, f=2)
        assert isinstance(gar, DistanceGAR)
        calls.update(pairwise=0, gram=0)
        first = gar.aggregate_matrix(matrix)
        assert calls == {"pairwise": 1, "gram": 1}, name
        # Equal content again: computed again, same answer — no hidden state.
        second = gar.aggregate_matrix(matrix.copy())
        assert calls == {"pairwise": 2, "gram": 2}, name
        assert np.array_equal(first, second)

        calls.update(pairwise=0, gram=0)
        sharded = sharded_aggregate_matrix(gar, matrix, shard_map)
        assert calls == {"pairwise": 0, "gram": shard_map.num_shards}, name
        assert np.array_equal(sharded, first)
