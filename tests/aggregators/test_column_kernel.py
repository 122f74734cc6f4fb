"""The sorted-block kernel behind every coordinate-wise order statistic.

``sorted_columns`` has two sides — whole-row compare-exchanges up to
``COMPARE_EXCHANGE_MAX_ROWS`` rows, ``np.sort`` above — and both must be
value-equal to ``np.sort(matrix, axis=0)``; ``column_median`` on top must be
what ``np.median(matrix, axis=0)`` returns, except that a NaN counts as the
largest value of its column (the middle of ``np.sort``'s order, NaNs last).  The rules
and detectors built on the pair are compared with the formulas they replaced,
kept here as the reference.  Equality is by value, never by byte hash:
``np.minimum`` and ``np.sort`` may order ``-0.0`` and ``+0.0`` differently.
The mean-around-median family (Bulyan's second stage, MeaMed) is the
exception and compared by bytes, because its median reaches the output only
through ``|x - median|``, where the sign of a zero is gone.
"""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
import pytest

import repro.aggregators.base
import repro.aggregators.bulyan
import repro.aggregators.geometric_median
import repro.aggregators.median
import repro.aggregators.phocas
import repro.detection.detectors
import repro.detection.manager
from repro.aggregators import column_median, init, sorted_columns
from repro.aggregators.base import COMPARE_EXCHANGE_MAX_ROWS as CUT
from repro.aggregators.base import mean_around_median, pairwise_squared_distances, row_positions
from repro.core.cluster import ClusterConfig
from repro.core.session import Session
from repro.detection.detectors import _EPS, MadOutlierDetector, _envelope_excess
from repro.sharding import ShardMap, sharded_aggregate_matrix

ROWS = range(1, 25)
DIMENSIONS = (1, 2, 37, 1000, 40_000)
KINDS = ("continuous", "integer", "duplicated-row", "signed-zero", "infinite")
#: ``KINDS`` plus scattered NaNs, kept out of ``KINDS``: its value comparisons lack ``equal_nan``.
KINDS_WITH_NAN = KINDS + ("nan",)
#: Both sides of the cut, the cut itself and its neighbour.
NAN_ROWS = (3, 4, CUT, CUT + 1, 12)


def make_matrix(kind: str, rows: int, dimension: int) -> np.ndarray:
    rng = np.random.default_rng([KINDS_WITH_NAN.index(kind), rows, dimension])
    matrix = rng.standard_normal((rows, dimension))
    if kind == "integer":
        matrix = np.rint(2.0 * matrix)
    elif kind == "duplicated-row":
        matrix[-1] = matrix[0]
    elif kind == "signed-zero":
        matrix = np.where(rng.random((rows, dimension)) < 0.6, 0.0, matrix)
        matrix = np.where(rng.random((rows, dimension)) < 0.5, -matrix, matrix)
    elif kind == "infinite":
        matrix[rng.random((rows, dimension)) < 0.2] = np.inf
        matrix[rng.random((rows, dimension)) < 0.2] = -np.inf
    elif kind == "nan":
        matrix[rng.random((rows, dimension)) < 0.05] = np.nan
    matrix.setflags(write=False)
    return matrix


@contextlib.contextmanager
def quiet():
    """No RuntimeWarning on ``-inf + inf``, NaN columns or an all-NaN Krum score."""
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def quiet_median(matrix: np.ndarray) -> np.ndarray:
    with quiet():
        return np.median(matrix, axis=0)


def reference_median(matrix: np.ndarray) -> np.ndarray:
    """``np.median`` with a NaN counted as the largest value: the middle of ``np.sort``."""
    ordered, k = np.sort(matrix, axis=0), matrix.shape[0]
    with quiet():
        return ordered[k // 2] if k % 2 else ordered[k // 2 - 1 : k // 2 + 1].mean(axis=0)


# ---------------------------------------------------------------------- #
# The parent's formulas, kept as the reference
# ---------------------------------------------------------------------- #
def reference_trimmed_mean(matrix: np.ndarray, f: int) -> np.ndarray:
    if f == 0:
        return matrix.mean(axis=0)
    return np.sort(matrix, axis=0)[f : matrix.shape[0] - f].mean(axis=0)


def reference_geometric_median(matrix, iterations=8, smoothing=1e-6) -> np.ndarray:
    estimate = np.median(matrix, axis=0)
    for _ in range(iterations):
        distances = np.linalg.norm(matrix - estimate[None, :], axis=1)
        weights = 1.0 / np.maximum(distances, smoothing)
        weights /= weights.sum()
        estimate = weights @ matrix
    return estimate


def reference_mad_scores(matrix: np.ndarray, f: int) -> np.ndarray:
    centre = np.median(matrix, axis=0, keepdims=True)
    deviation = np.abs(matrix - centre)
    mad = np.median(deviation, axis=0, keepdims=True)
    z = deviation / (1.4826 * mad + _EPS)
    return _envelope_excess(np.mean(z, axis=1), f)


def reference_mean_around_median(matrix: np.ndarray, keep: int) -> np.ndarray:
    median = reference_median(matrix)
    order = np.argsort(np.abs(matrix - median[None, :]), axis=0)[:keep]
    return np.take_along_axis(matrix, order, axis=0).mean(axis=0)


# ---------------------------------------------------------------------- #
# sorted_columns / column_median
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("rows", ROWS)
def test_sorted_columns_equals_numpy_sort_and_median(rows):
    for kind in KINDS:
        for dimension in DIMENSIONS:
            matrix = make_matrix(kind, rows, dimension)
            ordered = sorted_columns(matrix)
            assert ordered.shape == matrix.shape and ordered.dtype == np.float64
            assert np.array_equal(ordered, np.sort(matrix, axis=0)), (kind, dimension)
            with np.errstate(invalid="ignore"):
                median = column_median(ordered)
            assert np.array_equal(median, quiet_median(matrix), equal_nan=True), (kind, dimension)
            assert np.array_equal(median, reference_median(matrix), equal_nan=True), (kind, dimension)


@pytest.mark.parametrize("rows", (1, 3, CUT, CUT + 1, 13))
def test_input_is_never_written_and_result_is_fresh(rows):
    matrix = make_matrix("continuous", rows, 257)
    before = matrix.copy()
    ordered = sorted_columns(matrix)  # a write through a read-only view would raise
    median = column_median(ordered)
    assert np.array_equal(matrix, before)
    for result in (ordered, median):
        assert result.base is None and result.flags.writeable
        assert not np.shares_memory(result, matrix)
    assert not np.shares_memory(median, ordered)
    # A column slice (what a shard owner holds) is not contiguous.
    assert np.array_equal(sorted_columns(matrix[:, 5:90]), np.sort(matrix[:, 5:90], axis=0))


def test_the_grid_reaches_both_sides_of_the_cut():
    assert min(ROWS) < CUT < CUT + 1 < max(ROWS)


# ---------------------------------------------------------------------- #
# NaN and infinities, on both sides of the cut: a NaN is the largest value
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("rows", NAN_ROWS)
def test_a_nan_counts_as_the_largest_value_of_its_column(rows):
    matrix = np.random.default_rng(rows).standard_normal((rows, 9))
    matrix[0, 1] = matrix[rows // 2, 3] = matrix[-1, 5] = np.nan
    matrix[:, 7] = np.nan
    matrix[0, 8], matrix[-1, 8] = np.inf, -np.inf
    gar = init("median", n=rows, f=1)
    result = gar.aggregate_matrix(matrix)
    assert np.array_equal(result, reference_median(matrix), equal_nan=True)
    # One NaN in a column is outvoted like any outlier; only NaNs in the middle show.
    assert np.isfinite(result[[0, 1, 2, 3, 4, 5, 6, 8]]).all() and np.isnan(result[7])
    lone = matrix[:, [1, 3, 5]]
    assert (result[[1, 3, 5]] >= np.nanmin(lone, axis=0)).all()
    assert (result[[1, 3, 5]] <= np.nanmax(lone, axis=0)).all()
    # NaNs sort last on both sides, as in np.sort.
    assert np.array_equal(sorted_columns(matrix), np.sort(matrix, axis=0), equal_nan=True)


@pytest.mark.parametrize("rows", (2, 4, CUT + CUT % 2, CUT + 1 + (CUT + 1) % 2, 12))
def test_even_quorum_straddling_both_infinities_is_nan(rows):
    matrix = np.zeros((rows, 3))
    matrix[: rows // 2, 0], matrix[rows // 2 :, 0] = -np.inf, np.inf
    matrix[0, 1], matrix[-1, 1] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        result = init("median", n=rows, f=0).aggregate_matrix(matrix)
    expected = quiet_median(matrix)
    assert np.isnan(expected[0])
    assert np.array_equal(result, expected, equal_nan=True)


@pytest.mark.parametrize("rows", NAN_ROWS)
def test_trimmed_mean_still_trims_a_nan_as_an_extreme_value(rows):
    """A NaN is the largest value of its column, so ``f = 1`` trims it."""
    matrix = np.random.default_rng(rows).standard_normal((rows, 6))
    matrix[0, 1] = matrix[-1, 4] = np.nan
    result = init("trimmed-mean", n=rows, f=1).aggregate_matrix(matrix)
    assert np.isfinite(result).all()
    assert np.array_equal(result, reference_trimmed_mean(matrix, 1))


# ---------------------------------------------------------------------- #
# The rules and detectors on the kernel equal the formulas they replaced
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("rows", ROWS)
def test_rules_equal_the_parent_formulas(rows):
    f = (rows - 1) // 2
    for kind in KINDS[:4]:
        for dimension in DIMENSIONS[:4]:
            matrix = make_matrix(kind, rows, dimension)
            median = init("median", n=rows, f=f).aggregate_matrix(matrix)
            assert np.array_equal(median, np.median(matrix, axis=0)), (kind, dimension)
            for trim in {0, min(1, f), f}:
                trimmed = init("trimmed-mean", n=rows, f=trim).aggregate_matrix(matrix)
                assert np.array_equal(trimmed, reference_trimmed_mean(matrix, trim)), (kind, dimension)
            geometric = init("geometric-median", n=rows, f=f).aggregate_matrix(matrix)
            assert np.array_equal(geometric, reference_geometric_median(matrix)), (kind, dimension)


@pytest.mark.parametrize("rows", (3, 4, CUT, CUT + 1, 8, 13, 23))
def test_mad_scores_equal_the_parent_formula(rows):
    sources = [f"worker-{index}" for index in range(rows)]
    for kind in KINDS[:4]:
        for dimension in DIMENSIONS[:4]:
            matrix = make_matrix(kind, rows, dimension)
            for f in (0, (rows - 1) // 2):
                scores = MadOutlierDetector().score(matrix, sources, matrix[0], f=f)
                expected = reference_mad_scores(matrix, f)
                assert list(scores) == sources
                assert np.array_equal(np.array(list(scores.values())), expected), (kind, dimension, f)


@pytest.mark.parametrize("rows", ROWS)
def test_mean_around_median_is_byte_equal_to_the_parent_formula(rows):
    for kind in KINDS_WITH_NAN:
        for dimension in DIMENSIONS[:4]:
            matrix = make_matrix(kind, rows, dimension)
            before = matrix.copy()
            for keep in {keep for keep in (1, rows // 2, rows - 2, rows) if keep >= 1}:
                with quiet():
                    result = mean_around_median(matrix, keep)
                    expected = reference_mean_around_median(matrix, keep)
                assert result.tobytes() == expected.tobytes(), (kind, dimension, keep)
            assert np.array_equal(matrix, before, equal_nan=True)


@pytest.mark.parametrize("rows", ROWS)
def test_bulyan_and_meamed_are_byte_equal_to_the_parent_formula(rows, monkeypatch):
    rules = [("meamed", repro.aggregators.phocas, (rows - 1) // 2)]
    if rows >= 3:
        rules.append(("bulyan", repro.aggregators.bulyan, (rows - 3) // 4))
    for kind in KINDS_WITH_NAN:
        for dimension in DIMENSIONS[:4]:
            matrix = make_matrix(kind, rows, dimension)
            before = matrix.copy()
            for name, module, most in rules:
                for f in {min(1, most), most}:
                    gar = init(name, n=rows, f=f)
                    with quiet():
                        result = gar.aggregate_matrix(matrix)
                        with monkeypatch.context() as patch:
                            patch.setattr(module, "mean_around_median", reference_mean_around_median)
                            expected = gar.aggregate_matrix(matrix)
                    assert result.tobytes() == expected.tobytes(), (name, f, kind, dimension)
            assert np.array_equal(matrix, before, equal_nan=True)


@pytest.mark.parametrize("name", ("median", "trimmed-mean", "meamed"))
@pytest.mark.parametrize("rows", (3, 4, CUT, CUT + 1, 13))
def test_column_slices_concatenate_to_the_whole(name, rows):
    f = (rows - 1) // 2
    gar = init(name, n=rows, f=f)
    for kind in KINDS[:4]:
        for dimension in (37, 1000):
            matrix = make_matrix(kind, rows, dimension)
            whole = gar.aggregate_matrix(matrix)
            for shards in (2, 3):
                sharded = sharded_aggregate_matrix(gar, matrix, ShardMap(dimension, shards))
                assert sharded.tobytes() == whole.tobytes(), (kind, dimension, shards)


@pytest.mark.parametrize("rows", (3, 7, 11, 23))
def test_bulyan_combine_on_column_slices_of_a_committee(rows):
    gar = init("bulyan", n=rows, f=(rows - 3) // 4)
    for kind in KINDS[:4]:
        for dimension in (37, 1000):
            matrix = make_matrix(kind, rows, dimension)
            distances = pairwise_squared_distances(matrix)
            np.fill_diagonal(distances, 0.0)
            committee = matrix[gar.select(distances, row_positions(matrix))]
            whole = gar.combine(committee)
            for shards in (2, 3):
                slices = ShardMap(dimension, shards).slices()
                sharded = np.concatenate([gar.combine(committee[:, part]) for part in slices])
                assert sharded.tobytes() == whole.tobytes(), (kind, dimension, shards)


# ---------------------------------------------------------------------- #
# Guard: no per-column library median left on a round's path
# ---------------------------------------------------------------------- #
class _NumpyWithoutMedian:
    def __getattr__(self, name):
        if name == "median":
            raise AssertionError("np.median reached from a module that should use the column kernel")
        return getattr(np, name)


@pytest.fixture
def no_library_median(monkeypatch):
    for module in (
        repro.aggregators.base,
        repro.aggregators.median,
        repro.aggregators.geometric_median,
        repro.detection.detectors,
        repro.detection.manager,
    ):
        monkeypatch.setattr(module, "np", _NumpyWithoutMedian())


def _one_round(**overrides):
    base = dict(
        model="logistic",
        dataset="mnist",
        dataset_size=120,
        batch_size=8,
        num_iterations=1,
        accuracy_every=1,
        executor="serial",
        seed=3,
    )
    base.update(overrides)
    with Session(config=ClusterConfig(**base)) as session:
        return session.run()


def test_an_msmw_round_contracts_models_without_the_library_median(no_library_median):
    result = _one_round(
        deployment="msmw",
        num_workers=7,
        num_byzantine_workers=1,
        num_servers=4,
        num_byzantine_servers=1,
        gradient_gar="multi-krum",
        model_gar="median",
    )
    assert len(result.metrics) == 1


@pytest.mark.parametrize("rule", ("bulyan", "meamed"))
def test_an_ssmw_round_aggregates_without_the_library_median(no_library_median, rule):
    result = _one_round(deployment="ssmw", num_workers=7, num_byzantine_workers=1, gradient_gar=rule)
    assert len(result.metrics) == 1


def test_a_detection_round_scores_without_the_library_median(no_library_median):
    result = _one_round(
        deployment="ssmw",
        num_workers=7,
        num_byzantine_workers=2,
        num_attacking_workers=2,
        worker_attack="reversed",
        gradient_gar="geometric-median",
        detector="mad",
    )
    assert len(result.metrics) == 1
