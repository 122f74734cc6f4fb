"""Shard-parallel aggregation: coordinate-wise rules and the two-phase protocol.

Coordinate-wise GARs (average, median, trimmed mean, MeaMed/Phocas) touch each
coordinate independently, so aggregating a ``(q, d_shard)`` slice per shard and
concatenating the outputs is *bitwise* identical to aggregating the full
``(q, d)`` matrix — no protocol needed beyond the slice scatter.

Distance-based GARs (Krum, Multi-Krum, MDA, Bulyan) select rows by pairwise
euclidean geometry, which no single shard can see.  They run a two-phase
protocol instead, built on the coordinate-separability of squared distances::

    ||x - y||^2 = sum_s ||x[s] - y[s]||^2        (s ranges over the shards)

* **Phase 1** — every shard owner computes the partial ``(q, q)`` squared
  distances over its slice and ships it to the coordinator (shard 0's owner),
  which sums them into the global squared-distance matrix.  The sum over
  shards of the per-slice Gram expansions equals the full-matrix expansion
  exactly in real arithmetic; in float64 the two differ only in the last ulp,
  so the *selection* (an argmin / argsort over well-separated scores) is
  bitwise-equal on anything but adversarially tie-crafted inputs — the
  property suite locks this on random matrices.
* **Phase 2** — the coordinator broadcasts the selected row indices; every
  shard combines its own slice locally (copy one row for Krum, mean the
  selected rows for Multi-Krum/MDA, the trimmed median-anchored average for
  Bulyan's second stage — itself coordinate-wise, hence exact per shard).

The selected-index set in hand, the per-shard combinations are column-
independent operations, so the concatenated result is bitwise what the
unsharded rule would produce *for that selection*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.aggregators.base import GAR, gram_squared_distances, shared_squared_distances
from repro.aggregators.bulyan import Bulyan, bulyan_committee_from_distances, trimmed_median_average
from repro.aggregators.krum import Krum, MultiKrum, krum_scores_from_distances
from repro.aggregators.mda import MDA, mda_select_from_distances
from repro.exceptions import AggregationError
from repro.sharding.shard_map import ShardMap

#: GARs whose per-coordinate independence makes sharding semantically free.
COORDINATE_WISE_GARS = frozenset({"average", "median", "trimmed-mean", "meamed"})

#: GARs that need the two-phase partial-distance protocol.
TWO_PHASE_GARS = frozenset({"krum", "multi-krum", "mda", "bulyan"})


def is_coordinate_wise(gar_name: str) -> bool:
    return gar_name in COORDINATE_WISE_GARS


def is_two_phase(gar_name: str) -> bool:
    return gar_name in TWO_PHASE_GARS


def supports_sharding(gar_name: str) -> bool:
    """Whether the named GAR can run sharded (geometric-median cannot:
    its Weiszfeld iteration couples all coordinates through the row norms
    at every step, so neither sharding family applies)."""
    return is_coordinate_wise(gar_name) or is_two_phase(gar_name)


# ---------------------------------------------------------------------- #
# Phase 1 — partial distances and the coordinator's combination
# ---------------------------------------------------------------------- #
def partial_squared_distances(slice_matrix: np.ndarray) -> np.ndarray:
    """One shard's ``(q, q)`` partial squared distances over its slice.

    The per-slice Gram expansion ``|x|^2 + |y|^2 - 2<x, y>`` — deliberately
    *unclipped*: negative round-off is only clamped after the coordinator has
    summed all partials, mirroring the unsharded
    :func:`repro.aggregators.base.pairwise_squared_distances` post-processing.
    """
    return gram_squared_distances(np.asarray(slice_matrix, dtype=np.float64))


def combine_partial_distances(partials: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinator step: sum the shards' partials into the global matrix.

    Clamps the round-off negatives and zeroes the diagonal exactly, matching
    the invariants the selection helpers (``krum_scores_from_distances`` and
    friends) rely on.  Returns a read-only array.
    """
    if not partials:
        raise AggregationError("no partial distance matrices to combine")
    total = np.zeros_like(partials[0])
    for partial in partials:
        if partial.shape != total.shape:
            raise AggregationError(
                f"partial distance shape {partial.shape} does not match {total.shape}"
            )
        total += partial
    np.maximum(total, 0.0, out=total)
    np.fill_diagonal(total, 0.0)
    total.setflags(write=False)
    return total


# ---------------------------------------------------------------------- #
# Selection — computed once from the global distances, broadcast to shards
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardSelection:
    """The coordinator's broadcast: which rows each shard combines, and how.

    ``mode`` is one of:

    * ``"row"``  — copy the single selected row (Krum);
    * ``"mean"`` — average the selected rows (Multi-Krum, MDA);
    * ``"trimmed"`` — Bulyan's stage 2: the trimmed median-anchored average
      over the selected committee rows, trimming ``trim_f`` per side.
    """

    mode: str
    indices: np.ndarray
    trim_f: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.intp))


def select_from_distances(gar: GAR, distances: np.ndarray) -> ShardSelection:
    """The rule's row selection given the global squared-distance matrix."""
    q = distances.shape[0]
    if q < gar.minimum_inputs(gar.f):
        raise AggregationError(
            f"{gar.name} received {q} inputs but needs at least "
            f"{gar.minimum_inputs(gar.f)} to tolerate f={gar.f}"
        )
    if isinstance(gar, MultiKrum):
        scores = krum_scores_from_distances(distances, gar.f)
        m = min(gar.m, q)
        return ShardSelection(mode="mean", indices=np.argsort(scores)[:m])
    if isinstance(gar, Krum):
        scores = krum_scores_from_distances(distances, gar.f)
        return ShardSelection(mode="row", indices=np.asarray([int(np.argmin(scores))]))
    if isinstance(gar, MDA):
        keep = q - gar.f
        if gar.f == 0 or keep >= q:
            return ShardSelection(mode="mean", indices=np.arange(q))
        subset = mda_select_from_distances(
            np.sqrt(distances),
            keep,
            max_subsets=gar.max_subsets,
            subset_batch=gar.subset_batch,
            batch_budget_bytes=gar.batch_budget_bytes,
        )
        return ShardSelection(mode="mean", indices=subset)
    if isinstance(gar, Bulyan):
        committee = bulyan_committee_from_distances(distances, gar.f, max(1, q - 2 * gar.f))
        return ShardSelection(mode="trimmed", indices=committee, trim_f=gar.f)
    raise AggregationError(f"GAR '{gar.name}' has no two-phase selection rule")


def unsharded_select(gar: GAR, matrix: np.ndarray) -> ShardSelection:
    """The selection the *unsharded* rule performs — the equivalence baseline.

    Uses the same shared-cache distance matrix the rule's ``_aggregate``
    consumes, so property tests compare the two-phase selection against
    exactly what an unsharded round would have picked.
    """
    return select_from_distances(gar, shared_squared_distances(np.asarray(matrix, dtype=np.float64)))


def combine_selection(selection: ShardSelection, slice_matrix: np.ndarray) -> np.ndarray:
    """Phase 2 on one shard: combine the broadcast row indices over the slice."""
    matrix = np.asarray(slice_matrix, dtype=np.float64)
    if selection.mode == "row":
        return matrix[int(selection.indices[0])].copy()
    if selection.mode == "mean":
        return matrix[selection.indices].mean(axis=0)
    if selection.mode == "trimmed":
        return trimmed_median_average(matrix[selection.indices], selection.trim_f)
    raise AggregationError(f"unknown shard combination mode '{selection.mode}'")


# ---------------------------------------------------------------------- #
# Drivers
# ---------------------------------------------------------------------- #
def _functional_clone(gar: GAR, rows: int, f: Optional[int]) -> GAR:
    """Mirror ``GAR.__call__``'s clone-on-f semantics for the sharded path."""
    if f is not None and f != gar.f:
        return type(gar)(n=rows, f=f)
    return gar


def aggregate_shards(
    gar: GAR,
    buffer,
    f: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Aggregate a sharded round shard-by-shard into a full ``(d,)`` vector.

    ``buffer`` is anything exposing the staged-round protocol of
    :class:`repro.sharding.buffers.ShardedRoundBuffer` — ``shard_map``,
    ``rows`` and ``materialize(shard)``; only one ``(q, d_shard)`` slice is
    live at a time.  Coordinate-wise rules aggregate each slice directly;
    two-phase rules walk the shards twice (partials, then combination), which
    is the materialize-twice trade the bounded memory buys.
    """
    shard_map: ShardMap = buffer.shard_map
    rows = buffer.rows
    worker = _functional_clone(gar, rows, f)
    if out is None:
        out = np.empty(shard_map.dimension, dtype=np.float64)
    elif out.shape != (shard_map.dimension,):
        raise AggregationError(
            f"output vector shape {out.shape} does not match dimension {shard_map.dimension}"
        )

    if is_coordinate_wise(worker.name):
        for shard, sl in shard_map:
            out[sl] = worker.aggregate_matrix(buffer.materialize(shard))
        return out

    if not is_two_phase(worker.name):
        raise AggregationError(
            f"GAR '{worker.name}' does not support sharded aggregation "
            "(coordinate-wise and distance-based rules only)"
        )

    # Phase 1 — each shard's partial distances, summed by the coordinator.
    total: Optional[np.ndarray] = None
    for shard in range(shard_map.num_shards):
        partial = partial_squared_distances(buffer.materialize(shard))
        total = partial if total is None else total + partial
    distances = combine_partial_distances([total])
    selection = select_from_distances(worker, distances)

    # Phase 2 — broadcast the indices; every shard combines locally.
    for shard, sl in shard_map:
        out[sl] = combine_selection(selection, buffer.materialize(shard))
    return out


class _MatrixShardAdapter:
    """Present a full in-memory ``(q, d)`` matrix through the buffer protocol."""

    def __init__(self, matrix: np.ndarray, shard_map: ShardMap) -> None:
        self._matrix = np.asarray(matrix, dtype=np.float64)
        if self._matrix.ndim != 2 or self._matrix.shape[1] != shard_map.dimension:
            raise AggregationError(
                f"matrix shape {self._matrix.shape} does not match shard map "
                f"dimension {shard_map.dimension}"
            )
        self.shard_map = shard_map

    @property
    def rows(self) -> int:
        return int(self._matrix.shape[0])

    def materialize(self, shard: int) -> np.ndarray:
        return self._matrix[:, self.shard_map.slice_for(shard)]


def sharded_aggregate_matrix(
    gar: GAR, matrix: np.ndarray, shard_map: ShardMap, f: Optional[int] = None
) -> np.ndarray:
    """Run the full sharded pipeline over an in-memory matrix (tests, bench)."""
    return aggregate_shards(gar, _MatrixShardAdapter(matrix, shard_map), f=f)


def two_phase_select(gar: GAR, matrix: np.ndarray, shard_map: ShardMap) -> ShardSelection:
    """The selection the two-phase protocol reaches for ``matrix`` split by ``shard_map``."""
    partials: List[np.ndarray] = [
        partial_squared_distances(matrix[:, sl]) for _, sl in shard_map
    ]
    return select_from_distances(gar, combine_partial_distances(partials))
