"""General N-dimensional window aggregation.

The raster benchmark's regrid (Q2) and density (Q5) queries are
instances of one operator: tile the array with axis-aligned windows,
fold every window's valid cells through an Aggregator, and emit the
result as a *new array* whose cell (w₀, w₁, ...) holds window
(w₀, w₁, ...)'s aggregate — downsampling with any reduction.

Windows never need halo exchange: each chunk folds its cells into
partial states for the windows it intersects (the Aggregator's grouped
form), and one shuffle keyed by output cell merges the partials of
windows that straddle chunk boundaries and builds the output chunks.
This is the same path as ``ArrayRDD.aggregate_by``
(:func:`repro.core.array_rdd.aggregate_cells`), over every axis.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.aggregates import resolve_aggregator
from repro.core.array_rdd import ArrayRDD, aggregate_cells
from repro.core.metadata import ArrayMetadata
from repro.errors import ArrayError


def window_aggregate(array: ArrayRDD, window_shape, aggregator="avg",
                     result_chunk_shape=None) -> ArrayRDD:
    """Aggregate over tiling windows; returns the downsampled array.

    ``window_shape`` gives the window extent per axis (an entry of 1
    passes that axis through). Only windows containing at least one
    valid cell materialize.
    """
    meta = array.meta
    window_shape = tuple(int(w) for w in window_shape)
    if len(window_shape) != meta.ndim:
        raise ArrayError(
            f"need {meta.ndim} window extents, got {len(window_shape)}"
        )
    if any(w <= 0 for w in window_shape):
        raise ArrayError(f"window extents must be positive: "
                         f"{window_shape}")
    agg = resolve_aggregator(aggregator)

    out_shape = tuple(
        math.ceil(size / w) for size, w in zip(meta.shape, window_shape))
    if result_chunk_shape is None:
        result_chunk_shape = tuple(
            max(1, math.ceil(c / w))
            for c, w in zip(meta.chunk_shape, window_shape))
    out_meta = ArrayMetadata(
        out_shape, result_chunk_shape, dim_names=meta.dim_names,
        dtype=np.float64,
        attribute=f"{agg.name}_{meta.attribute}")

    # the base's count: reading ``array.rdd`` would compile (and count)
    # the pending plan that the partials sink lowers again
    return aggregate_cells(array, out_meta, agg, range(meta.ndim),
                           window_shape, array._base.num_partitions)


def window_counts(array: ArrayRDD, window_shape) -> ArrayRDD:
    """Observation counts per window (the Q5 primitive)."""
    return window_aggregate(array, window_shape, "count")


def regrid(array: ArrayRDD, window_shape) -> ArrayRDD:
    """Mean-downsample onto a coarser grid (the Q2 primitive)."""
    return window_aggregate(array, window_shape, "avg")
