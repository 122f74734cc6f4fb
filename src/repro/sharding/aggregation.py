"""Shard-parallel aggregation: the rule object itself, run slice by slice.

Coordinate-wise GARs (``GAR.coordinate_wise``: average, median, trimmed mean,
MeaMed/Phocas) touch each coordinate independently, so aggregating a
``(q, d_shard)`` slice per shard and concatenating the outputs is *bitwise*
identical to aggregating the full ``(q, d)`` matrix — no protocol needed
beyond the slice scatter.

Distance rules (:class:`~repro.aggregators.base.DistanceGAR`: Krum,
Multi-Krum, MDA, Bulyan) select rows by pairwise euclidean geometry, which no
single shard can see.  They run a two-phase protocol instead, built on the
coordinate-separability of squared distances::

    ||x - y||^2 = sum_s ||x[s] - y[s]||^2        (s ranges over the shards)

* **Phase 1** — every shard owner computes the partial ``(q, q)`` squared
  distances over its slice and ships it to the coordinator (shard 0's owner),
  which sums them into the global squared-distance matrix and hands it to the
  rule's own ``select``.  The sum over shards of the per-slice Gram expansions
  equals the full-matrix expansion exactly in real arithmetic; in float64 the
  two differ only in the last ulp, so the *selection* (an argmin / argsort
  over well-separated scores) is bitwise-equal on anything but adversarially
  tie-crafted inputs — the property suite locks this on random matrices.
* **Phase 2** — the coordinator broadcasts the selected row indices; every
  shard runs the rule's own ``combine`` on those rows of its slice.
  ``combine`` is column-independent, so the concatenated result is bitwise
  what the unsharded rule would produce *for that selection*.

Nothing here knows a concrete rule: a new ``DistanceGAR`` subclass or
``coordinate_wise`` rule shards as it is.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.aggregators.base import GAR, GAR_REGISTRY, DistanceGAR, gram_squared_distances
from repro.exceptions import AggregationError
from repro.sharding.shard_map import ShardMap


def supports_sharding(gar_name: str) -> bool:
    """Whether the named GAR can run sharded (geometric-median cannot:
    its Weiszfeld iteration couples all coordinates through the row norms
    at every step, so neither sharding family applies)."""
    cls = GAR_REGISTRY.get(gar_name)
    return cls is not None and (cls.coordinate_wise or issubclass(cls, DistanceGAR))


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

    Clamps the round-off negatives and zeroes the diagonal exactly — what
    :meth:`DistanceGAR.select` expects.  Returns a read-only array.
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
# Drivers
# ---------------------------------------------------------------------- #
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
    distance rules walk the shards twice (partials, then combination), which
    is the materialize-twice trade the bounded memory buys.  As in the
    functional form ``gar(gradients=..., f=...)``, the rule is re-sized for
    the rows the buffer holds (:meth:`GAR.resized`).
    """
    shard_map: ShardMap = buffer.shard_map
    gar = gar.resized(buffer.rows, f)
    if out is None:
        out = np.empty(shard_map.dimension, dtype=np.float64)
    elif out.shape != (shard_map.dimension,):
        raise AggregationError(
            f"output vector shape {out.shape} does not match dimension {shard_map.dimension}"
        )

    if gar.coordinate_wise:
        for shard, sl in shard_map:
            out[sl] = gar.aggregate_matrix(buffer.materialize(shard))
        return out

    if not isinstance(gar, DistanceGAR):
        raise AggregationError(
            f"GAR '{gar.name}' does not support sharded aggregation "
            "(coordinate-wise and distance-based rules only)"
        )
    if buffer.rows < gar.minimum_inputs(gar.f):
        raise AggregationError(
            f"{gar.name} received {buffer.rows} inputs but needs at least "
            f"{gar.minimum_inputs(gar.f)} to tolerate f={gar.f}"
        )

    # Phase 1 — each shard's partial distances, summed by the coordinator.
    partials = [
        partial_squared_distances(buffer.materialize(shard))
        for shard in range(shard_map.num_shards)
    ]
    selected = gar.select(combine_partial_distances(partials))
    # Phase 2 — broadcast the indices; every shard combines locally.
    for shard, sl in shard_map:
        out[sl] = gar.combine(buffer.materialize(shard)[selected])
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
