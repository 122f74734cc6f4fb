"""Common interface, registry and validation for gradient aggregation rules.

Besides the :class:`GAR` base class and its registry, this module hosts the
shared pairwise-distance machinery used by the distance-based rules (Krum,
Multi-Krum, MDA, Bulyan).  Computing the (q, q) squared-distance matrix is
the O(q^2 d) hot kernel of those rules; :data:`DISTANCE_CACHE` memoizes it
per input matrix so that within one training round — where the same gradient
matrix is typically scored several times (Multi-Krum selection, Bulyan's
iterated inner Krum, the functional ``gar(gradients=..., f=...)`` re-check
path) — the distances are computed exactly once.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

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
        if f is not None and f != self.f:
            # One clone both re-validates the resilience condition for the
            # requested f and performs the aggregation.
            clone = type(self)(n=len(gradients), f=f)
            return clone.aggregate(gradients)
        return self.aggregate(gradients)

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


#: Monotonic round-token source for :func:`tag_round_matrix`.
_ROUND_TOKEN_COUNTER = itertools.count(1)

#: ``id(matrix) -> (token, weakref-to-matrix)`` for matrices registered as
#: per-round views.  The weak reference makes every lookup self-validating:
#: a recycled ``id`` (the tagged view was dropped without an untag — e.g. a
#: round buffer replaced after a capacity change, or a torn-down deployment)
#: can never claim a stale token, because the stored referent no longer *is*
#: the queried array.  Dead entries are swept opportunistically on tagging.
_ROUND_TOKENS: Dict[int, Tuple[int, "weakref.ref"]] = {}
_ROUND_TOKENS_LOCK = threading.Lock()


def _sweep_dead_tokens_locked() -> None:
    dead = [key for key, (_, ref) in _ROUND_TOKENS.items() if ref() is None]
    for key in dead:
        del _ROUND_TOKENS[key]


def tag_round_matrix(matrix: np.ndarray) -> int:
    """Register ``matrix`` as a per-round view and return its fresh token.

    While tagged, :class:`PairwiseDistanceCache` keys the matrix by this token
    instead of re-hashing its O(q d) bytes with BLAKE2b on every lookup.
    Round buffers untag on recycle (:func:`untag_round_matrix`); callers must
    re-tag after mutating the underlying storage.  Registration holds only a
    weak reference, so a tagged view that is simply dropped costs one stale
    entry until the next sweep, never a wrong cache hit.
    """
    token = next(_ROUND_TOKEN_COUNTER)
    with _ROUND_TOKENS_LOCK:
        if len(_ROUND_TOKENS) >= 64:
            _sweep_dead_tokens_locked()
        _ROUND_TOKENS[id(matrix)] = (token, weakref.ref(matrix))
    return token


def untag_round_matrix(matrix: np.ndarray) -> None:
    """Drop the round token of ``matrix`` (no-op when it was never tagged)."""
    with _ROUND_TOKENS_LOCK:
        _ROUND_TOKENS.pop(id(matrix), None)


def _round_token_of(matrix: np.ndarray) -> Optional[int]:
    """The live token of ``matrix``, validating identity through the weakref."""
    with _ROUND_TOKENS_LOCK:
        entry = _ROUND_TOKENS.get(id(matrix))
        if entry is None:
            return None
        token, ref = entry
        if ref() is matrix:
            return token
        # Stale entry from a dropped view whose id was recycled: purge it and
        # fall back to content hashing for this (different) array.
        del _ROUND_TOKENS[id(matrix)]
        return None


class PairwiseDistanceCache:
    """Small LRU cache of pairwise squared-distance matrices.

    Per-round matrices registered through :func:`tag_round_matrix` are keyed
    by their round token — an O(1) lookup, no bytes touched.  Everything else
    falls back to a content fingerprint (shape plus a BLAKE2b digest of the
    bytes), so the cache stays correct for callers passing freshly allocated
    arrays with identical contents.  Either way a hit saves the O(q^2 d)
    distance computation that one round's rules would otherwise repeat
    (Multi-Krum selection, Bulyan's iterated inner Krum, the functional
    ``gar(gradients=..., f=...)`` re-check path).

    Cached matrices have an exact-zero diagonal and are marked read-only:
    consumers that used to mutate the matrix (e.g. Krum's fill-diagonal
    trick) must work on the shared copy without writing to it.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def _fingerprint(matrix: np.ndarray) -> Tuple:
        token = _round_token_of(matrix)
        if token is not None:
            return ("round-token", token, matrix.shape, matrix.dtype.str)
        # blake2b consumes the array's buffer directly (no tobytes() copy);
        # ascontiguousarray is a no-op for the already-C-contiguous matrices
        # produced by as_matrix.
        data = np.ascontiguousarray(matrix)
        digest = hashlib.blake2b(data, digest_size=16).digest()
        return (matrix.shape, matrix.dtype.str, digest)

    def squared_distances(self, matrix: np.ndarray) -> np.ndarray:
        """Cached (q, q) squared-distance matrix with an exact-zero diagonal."""
        key = self._fingerprint(matrix)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return cached
        distances = pairwise_squared_distances(matrix)
        np.fill_diagonal(distances, 0.0)
        distances.setflags(write=False)
        with self._lock:
            self.misses += 1
            self._entries[key] = distances
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return distances

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PairwiseDistanceCache(maxsize={self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


#: Process-wide cache shared by all distance-based GARs.  One training round
#: aggregates a handful of distinct matrices at most, so a few entries go a
#: long way; the LRU bound keeps memory at O(maxsize * q^2).
DISTANCE_CACHE = PairwiseDistanceCache(maxsize=8)


def shared_squared_distances(matrix: np.ndarray) -> np.ndarray:
    """Squared-distance matrix of ``matrix`` through the shared round cache.

    The returned array is read-only and has an exact-zero diagonal; index it
    (``distances[np.ix_(rows, rows)]``) rather than mutating it.
    """
    return DISTANCE_CACHE.squared_distances(matrix)
