"""Common interface, registry and validation for gradient aggregation rules.

Two kinds of rule build on :class:`GAR`:

* *coordinate-wise* rules (``coordinate_wise = True``: average, median,
  trimmed mean, MeaMed) compute every output coordinate from its own input
  column, so they can run on any column slice of the inputs;
* *distance* rules (:class:`DistanceGAR`: Krum, Multi-Krum, MDA, Bulyan) pick
  rows from the ``(q, q)`` pairwise squared distances (:meth:`~DistanceGAR.select`)
  and then combine the picked rows column by column
  (:meth:`~DistanceGAR.combine`).  A rule is those two methods and nothing
  else; the unsharded :meth:`DistanceGAR._aggregate` and the sharded two-phase
  protocol (:mod:`repro.sharding.aggregation`) both run them, each computing
  the distances exactly once per aggregation.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Type

import numpy as np

from repro.exceptions import AggregationError, ResilienceConditionError


def as_matrix(vectors) -> np.ndarray:
    """View ``vectors`` as a (q, d) float64 matrix, copying only when needed.

    This is the one shared restacking helper of the codebase (GARs, attacks,
    the variance tool and the alignment probe all route through it).  An
    already-contiguous float64 ``(q, d)`` array — e.g. a
    :class:`~repro.network.transport.RoundBuffer` view — is returned as-is
    with zero copies (including its read-only flag); anything else is stacked
    into a fresh matrix.  Raises :class:`AggregationError` when the input is
    empty or rows disagree on dimension.
    """
    if isinstance(vectors, np.ndarray):
        if vectors.ndim != 2:
            raise AggregationError(
                f"matrix input must be 2-D (q, d), got ndim={vectors.ndim}"
            )
        if vectors.shape[0] == 0:
            raise AggregationError("cannot aggregate an empty matrix")
        if vectors.dtype == np.float64 and vectors.flags.c_contiguous:
            return vectors
        return np.ascontiguousarray(vectors, dtype=np.float64)
    if not vectors:
        raise AggregationError("cannot aggregate an empty list of vectors")
    rows = [np.asarray(v, dtype=np.float64).ravel() for v in vectors]
    dim = rows[0].size
    for index, row in enumerate(rows):
        if row.size != dim:
            raise AggregationError(
                f"input {index} has dimension {row.size}, expected {dim}"
            )
    return np.stack(rows, axis=0)


def scale_rows(matrix, weights) -> np.ndarray:
    """Fresh ``(q, d)`` matrix with row ``i`` scaled by ``weights[i]``.

    The row-weighting primitive behind reputation-weighted aggregation
    (:mod:`repro.detection`): the input — typically a read-only round-buffer
    view — is never written through; the result is always a new array the
    caller owns.  Raises :class:`AggregationError` on a length mismatch.
    """
    grid = as_matrix(matrix)
    scale = np.asarray(weights, dtype=np.float64).ravel()
    if scale.size != grid.shape[0]:
        raise AggregationError(
            f"got {scale.size} row weights for a matrix with {grid.shape[0]} rows"
        )
    return grid * scale[:, None]


class GAR:
    """Base class for all gradient aggregation rules.

    Subclasses define :attr:`name`, implement :meth:`_aggregate` on a (q, d)
    matrix and declare their resilience requirement through
    :meth:`minimum_inputs`.
    """

    name: str = "abstract"

    #: Whether every output coordinate depends on its own input column only,
    #: so aggregating column slices and concatenating equals aggregating whole.
    coordinate_wise: bool = False

    def __init__(self, n: int, f: int = 0) -> None:
        if n <= 0:
            raise ResilienceConditionError("n must be positive")
        if f < 0:
            raise ResilienceConditionError("f must be non-negative")
        required = self.minimum_inputs(f)
        if n < required:
            raise ResilienceConditionError(
                f"{self.name} requires n >= {required} to tolerate f={f} "
                f"Byzantine inputs, got n={n}"
            )
        self.n = n
        self.f = f

    # ------------------------------------------------------------------ #
    @classmethod
    def minimum_inputs(cls, f: int) -> int:
        """Minimum number of inputs needed to tolerate ``f`` Byzantine ones."""
        raise NotImplementedError

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def aggregate(self, vectors) -> np.ndarray:
        """Aggregate ``q`` input vectors into one output vector.

        Accepts either a sequence of 1-D vectors or an already-stacked
        ``(q, d)`` matrix (see :meth:`aggregate_matrix`); the sequence form is
        stacked through :func:`as_matrix` inside :meth:`aggregate_matrix`.
        """
        return self.aggregate_matrix(vectors)

    def aggregate_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Aggregate a ``(q, d)`` matrix of input rows into one output vector.

        This is the zero-copy entry point: a read-only round-buffer view is
        consumed directly — no restacking — and no rule ever writes through
        it (the aliasing-safety suite locks this down).  The result is always
        a fresh array owned by the caller.
        """
        matrix = as_matrix(matrix)
        if matrix.shape[0] < self.minimum_inputs(self.f):
            raise AggregationError(
                f"{self.name} received {matrix.shape[0]} inputs but needs at least "
                f"{self.minimum_inputs(self.f)} to tolerate f={self.f}"
            )
        return self._aggregate(matrix)

    def __call__(self, gradients, f: int | None = None) -> np.ndarray:
        """Functional form matching the paper's listings: ``gar(gradients=..., f=...)``."""
        return self.resized(len(gradients), f).aggregate(gradients)

    def resized(self, rows: int, f: int | None = None) -> "GAR":
        """This rule sized for ``rows`` inputs and ``f`` Byzantine ones (default: unchanged).

        Returns ``self`` when nothing changes.  A new ``f`` is re-validated by
        the constructor (:class:`ResilienceConditionError` when ``rows`` cannot
        carry it); with ``f`` unchanged, too few rows also return ``self`` so
        that :meth:`aggregate_matrix` reports the short quorum as the runtime
        fault it is (:class:`AggregationError`).  Extra constructor options
        (``MultiKrum(m=...)``, ``GeometricMedian(iterations=...)``) are not
        carried over to a re-sized rule.
        """
        if f is None:
            f = self.f
        if f == self.f and (rows == self.n or rows < self.minimum_inputs(f)):
            return self
        return type(self)(n=rows, f=f)

    # ------------------------------------------------------------------ #
    def flops(self, d: int) -> float:
        """Approximate floating-point operation count for aggregating at dimension ``d``.

        Used by the simulated cost model to reproduce the aggregation-time
        component of the paper's throughput figures.
        """
        return float(self.n * d)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n}, f={self.f})"


GAR_REGISTRY: Dict[str, Type[GAR]] = {}


def register_gar(cls: Type[GAR]) -> Type[GAR]:
    """Class decorator adding a GAR implementation to the global registry."""
    if not issubclass(cls, GAR):
        raise TypeError("register_gar expects a GAR subclass")
    GAR_REGISTRY[cls.name] = cls
    return cls


def available_gars() -> List[str]:
    """Names of all registered aggregation rules."""
    return sorted(GAR_REGISTRY)


def init(name: str, n: int, f: int = 0, **kwargs) -> GAR:
    """Instantiate a GAR by name — the ``init()`` entry point from the paper.

    Parameters
    ----------
    name:
        One of :func:`available_gars` (e.g. ``"median"``, ``"multi-krum"``).
    n:
        Total number of input vectors the rule will receive.
    f:
        Maximum number of Byzantine inputs to tolerate.
    """
    key = name.lower().replace("_", "-")
    if key not in GAR_REGISTRY:
        raise AggregationError(f"unknown GAR '{name}'; available: {available_gars()}")
    return GAR_REGISTRY[key](n=n, f=f, **kwargs)


def gram_squared_distances(matrix: np.ndarray) -> np.ndarray:
    """The Gram expansion ``|x|^2 + |y|^2 - 2<x, y>`` over the rows of ``matrix``, unclipped.

    Round-off can leave small negatives off the diagonal; the sharded protocol
    clamps them only after summing the shards' partials, everyone else through
    :func:`pairwise_squared_distances`.
    """
    # ``A @ A.T`` on one buffer is a symmetric rank-k update (half a GEMM); the
    # squared norms are its diagonal, so the rows are read once.
    gram = matrix @ matrix.T
    norms = gram.diagonal()
    return norms[:, None] + norms[None, :] - 2.0 * gram


def pairwise_squared_distances(matrix: np.ndarray) -> np.ndarray:
    """(q, q) matrix of squared euclidean distances between the rows of ``matrix``."""
    squared = gram_squared_distances(matrix)
    np.maximum(squared, 0.0, out=squared)
    return squared


#: Largest row count :func:`sorted_columns` orders by whole-row compare-exchanges;
#: above it ``np.sort`` is faster.  Read from the ``"cut"`` rows of
#: ``BENCH_hotpath.json["gar"]``: the largest k that wins at every measured d.
COMPARE_EXCHANGE_MAX_ROWS = 6


def sorted_columns(matrix: np.ndarray) -> np.ndarray:
    """A fresh ``(k, d)`` block holding every column of ``matrix`` in ascending order.

    Value-equal to ``np.sort(matrix, axis=0)``, NaNs last included; ``matrix``
    (often a read-only round-buffer view) is never written.  NumPy's axis-0
    sort and median pay a fixed price per *column* whatever the row count, so
    for a few rows an odd-even transposition sweep of whole-row
    compare-exchanges — the paper's branchless sorting primitive, vectorised
    across the coordinate axis — is an order of magnitude cheaper.
    """
    k = matrix.shape[0]
    if k > COMPARE_EXCHANGE_MAX_ROWS:
        return np.sort(matrix, axis=0)
    ordered = np.array(matrix, order="C")
    spare = np.empty_like(ordered[0])
    for phase in range(k):
        for row in range(phase % 2, k - 1, 2):
            low, high = ordered[row], ordered[row + 1]
            np.minimum(low, high, out=spare)
            np.maximum(low, high, out=high)
            low[:] = spare
    # Both ufuncs hand a NaN on, so by now it fills its column (np.fmin would sink
    # it, but breaks -0.0 / +0.0 ties by SIMD lane): redo those as np.sort does.
    holds_nan = np.isnan(ordered[-1])
    if holds_nan.any():
        ordered[:, holds_nan] = np.sort(matrix[:, holds_nan], axis=0)
    return ordered


def column_median(ordered: np.ndarray) -> np.ndarray:
    """Per-column median of a block from :func:`sorted_columns`, as ``numpy.median(.., axis=0)`` gives it."""
    k = ordered.shape[0]
    if k % 2:
        median = ordered[k // 2].copy()
    else:
        median = (ordered[k // 2 - 1] + ordered[k // 2]) / 2.0
    # NaNs sort last, so the last row says which columns hold one: those are NaN.
    median[np.isnan(ordered[-1])] = np.nan
    return median


def mean_around_median(matrix: np.ndarray, keep: int) -> np.ndarray:
    """Per coordinate, the mean of the ``keep`` values closest to the median.

    Column-independent: applying it to column slices and concatenating is
    bitwise what it gives on the whole matrix.  Byte-equal to the same formula
    on NumPy's median: ``column_median`` may differ from it only in the sign
    of a zero, which ``abs`` removes before the argsort sees it.
    """
    # The keep values nearest the median are a contiguous window of the sorted
    # block, so the argsort could go too.  It stays until ties have a defined
    # order (ROADMAP item 5), which the window would break differently, and
    # until the benchmark's aggregation-share floor is re-anchored (item 1).
    median = column_median(sorted_columns(matrix))
    order = np.argsort(np.abs(matrix - median[None, :]), axis=0)[:keep]
    return np.take_along_axis(matrix, order, axis=0).mean(axis=0)


class DistanceGAR(GAR):
    """A rule that picks rows by pairwise euclidean geometry, then combines them.

    Subclasses define :meth:`select` (and :meth:`combine` unless it is the
    mean); that is the whole rule.  Because ``select`` sees only distances and
    ``combine`` is column-independent, the sharded two-phase protocol runs the
    same two methods on summed per-slice distances and on per-slice rows — a
    new distance rule shards with no edit under :mod:`repro.sharding`.
    """

    def select(self, distances: np.ndarray) -> np.ndarray:
        """Indices of the rows to combine, from the ``(q, q)`` squared distances.

        ``distances`` is non-negative with an exact-zero diagonal, may be
        read-only and must not be mutated.
        """
        raise NotImplementedError

    def combine(self, rows: np.ndarray) -> np.ndarray:
        """One vector from the selected ``rows``, each coordinate from its own column."""
        return rows.mean(axis=0)

    def _aggregate(self, matrix: np.ndarray) -> np.ndarray:
        distances = pairwise_squared_distances(matrix)
        np.fill_diagonal(distances, 0.0)
        return self.combine(matrix[self.select(distances)])

    def flops(self, d: int) -> float:
        return float(self.n ** 2 * d)


#: Read by ``benchmarks/e2e/harness.py`` (``.hits`` / ``.misses``) and by nothing
#: else, and never written: the distance cache it counted is gone.  Goes with
#: the benchmark's move onto in-``src`` telemetry (ROADMAP, first open item).
DISTANCE_CACHE = SimpleNamespace(hits=0, misses=0)
