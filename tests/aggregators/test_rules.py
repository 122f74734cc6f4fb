"""Behavioural tests for each gradient aggregation rule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregators import MDA, Average, Bulyan, Krum, Median, MultiKrum, TrimmedMean
from repro.aggregators.base import pairwise_squared_distances
from repro.exceptions import AggregationError


def honest_cluster(num, dim=6, centre=1.0, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    return [centre + rng.normal(0.0, spread, size=dim) for _ in range(num)]


class TestAverage:
    def test_mean_of_inputs(self):
        gar = Average(n=4)
        out = gar.aggregate([np.full(3, float(i)) for i in range(4)])
        assert np.allclose(out, 1.5)

    def test_single_outlier_corrupts_average(self):
        """The vulnerability that motivates the paper."""
        gar = Average(n=5)
        vectors = honest_cluster(4) + [np.full(6, 1e6)]
        out = gar.aggregate(vectors)
        assert np.abs(out - 1.0).max() > 1e4


class TestMedian:
    def test_coordinate_wise_median(self):
        gar = Median(n=3, f=1)
        vectors = [np.array([1.0, 10.0]), np.array([2.0, 20.0]), np.array([3.0, 0.0])]
        assert np.allclose(gar.aggregate(vectors), [2.0, 10.0])

    def test_ignores_f_extreme_outliers(self):
        gar = Median(n=5, f=2)
        vectors = honest_cluster(3) + [np.full(6, 1e6), np.full(6, -1e6)]
        out = gar.aggregate(vectors)
        assert np.abs(out - 1.0).max() < 0.5

    def test_identical_inputs_returned_unchanged(self):
        gar = Median(n=3, f=1)
        out = gar.aggregate([np.arange(4.0)] * 3)
        assert np.allclose(out, np.arange(4.0))


class TestKrum:
    def test_returns_one_of_the_inputs(self):
        gar = Krum(n=7, f=2)
        vectors = honest_cluster(7)
        out = gar.aggregate(vectors)
        assert any(np.allclose(out, v) for v in vectors)

    def test_never_selects_far_outlier(self):
        gar = Krum(n=7, f=2)
        vectors = honest_cluster(5) + [np.full(6, 100.0), np.full(6, -100.0)]
        out = gar.aggregate(vectors)
        assert np.abs(out - 1.0).max() < 0.5

    def test_selects_the_densest_point(self):
        gar = Krum(n=5, f=1)
        tight = [np.zeros(3), np.full(3, 0.01), np.full(3, -0.01), np.full(3, 0.02)]
        lonely = [np.full(3, 5.0)]
        out = gar.aggregate(tight + lonely)
        assert np.abs(out).max() < 0.1


class TestMultiKrum:
    def test_averages_m_best(self):
        gar = MultiKrum(n=9, f=2, m=3)
        vectors = honest_cluster(7) + [np.full(6, 50.0), np.full(6, -50.0)]
        out = gar.aggregate(vectors)
        assert np.abs(out - 1.0).max() < 0.5

    def test_default_m_is_n_minus_f(self):
        gar = MultiKrum(n=9, f=2)
        assert gar.m == 7

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            MultiKrum(n=9, f=2, m=0)

    def test_selection_indices_exclude_outliers(self):
        gar = MultiKrum(n=9, f=2, m=5)
        vectors = honest_cluster(7) + [np.full(6, 50.0), np.full(6, -50.0)]
        selected = gar.select(pairwise_squared_distances(np.stack(vectors)))
        assert 7 not in selected and 8 not in selected

    def test_with_f_zero_close_to_average(self):
        gar = MultiKrum(n=5, f=0, m=5)
        vectors = honest_cluster(5)
        assert np.allclose(gar.aggregate(vectors), np.mean(vectors, axis=0))


class TestMDA:
    def test_excludes_outliers_from_average(self):
        gar = MDA(n=5, f=1)
        vectors = honest_cluster(4) + [np.full(6, 1e3)]
        out = gar.aggregate(vectors)
        assert np.abs(out - 1.0).max() < 0.5

    def test_equals_average_when_f_zero(self):
        gar = MDA(n=4, f=0)
        vectors = honest_cluster(4)
        assert np.allclose(gar.aggregate(vectors), np.mean(vectors, axis=0))

    def test_picks_min_diameter_subset(self):
        gar = MDA(n=3, f=1)
        vectors = [np.array([0.0]), np.array([0.1]), np.array([10.0])]
        out = gar.aggregate(vectors)
        assert out[0] == pytest.approx(0.05)

    def test_refuses_combinatorial_explosion(self):
        gar = MDA(n=61, f=30)
        gar.max_subsets = 1000
        with pytest.raises(AggregationError):
            gar.aggregate([np.zeros(2)] * 61)

    def test_exponential_flops_estimate_grows_with_f(self):
        small = MDA(n=9, f=1).flops(100)
        large = MDA(n=9, f=4).flops(100)
        assert large > small


class TestBulyan:
    def test_resists_f_colluding_outliers(self):
        gar = Bulyan(n=11, f=2)
        vectors = honest_cluster(9) + [np.full(6, 30.0)] * 2
        out = gar.aggregate(vectors)
        assert np.abs(out - 1.0).max() < 0.5

    def test_output_within_honest_coordinate_range(self):
        gar = Bulyan(n=11, f=2)
        honest = honest_cluster(9, centre=0.0, spread=1.0, seed=3)
        malicious = [np.full(6, 1e4), np.full(6, -1e4)]
        out = gar.aggregate(honest + malicious)
        stacked = np.stack(honest)
        assert (out <= stacked.max(axis=0) + 1e-9).all()
        assert (out >= stacked.min(axis=0) - 1e-9).all()

    def test_identical_inputs_fixed_point(self):
        gar = Bulyan(n=7, f=1)
        out = gar.aggregate([np.arange(5.0)] * 7)
        assert np.allclose(out, np.arange(5.0))

    @pytest.mark.xfail(
        strict=True,
        reason="once 2f + 2 rows remain, the last committee seats go in row order (ROADMAP item 5)",
    )
    def test_no_row_enters_the_committee_by_its_index_alone(self):
        q, f = 23, 5
        matrix = np.random.default_rng(0).standard_normal((q, 50))
        matrix[:f] += 1e3  # far outliers, arriving first
        distances = pairwise_squared_distances(matrix)
        np.fill_diagonal(distances, 0.0)
        committee = Bulyan(n=q, f=f).select(distances)
        assert not set(committee.tolist()) & set(range(f))


class TestTrimmedMean:
    def test_trims_extremes(self):
        gar = TrimmedMean(n=5, f=1)
        vectors = [np.array([v]) for v in [0.0, 1.0, 2.0, 3.0, 100.0]]
        assert gar.aggregate(vectors)[0] == pytest.approx(2.0)

    def test_f_zero_is_plain_average(self):
        gar = TrimmedMean(n=4, f=0)
        vectors = honest_cluster(4)
        assert np.allclose(gar.aggregate(vectors), np.mean(vectors, axis=0))
