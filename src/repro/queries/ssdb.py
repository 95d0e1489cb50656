"""The SS-DB-style raster benchmark queries of Table I, on Spangle.

Five queries over a stack of images (dimensions x, y, image; one
attribute per band):

- **Q1** (aggregation): average of selected cells in a range —
  background-noise estimation over raw imagery.
- **Q2** (regridding): average of adjacent cells onto a coarser grid.
- **Q3** (aggregation): cells in a range matching a condition, averaged.
- **Q4** (polygons): count observations in a range satisfying a
  condition after a filter.
- **Q5** (density): group observations into spatial windows, find
  windows with more than a given number of observations.

Baseline implementations of the same queries live with their systems
(:mod:`repro.baselines`); this module provides the Spangle side plus the
shared dataset loader.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import ArrayRDD, SpangleDataset
from repro.core import mapper
from repro.data.raster import sdss_stack
from repro.errors import ArrayError


def load_spangle_dataset(context, band_scenes: dict,
                         chunk_shape=(128, 128, 1),
                         num_partitions=None,
                         use_mask_rdd: bool = True) -> SpangleDataset:
    """Ingest ``{band: [2-D scenes]}`` into a 3-D multi-band dataset."""
    attributes = {}
    for band, scenes in band_scenes.items():
        values, valid = sdss_stack(scenes)
        attributes[band] = ArrayRDD.from_numpy(
            context, values, chunk_shape, valid=valid,
            num_partitions=num_partitions,
            dim_names=("x", "y", "image"), attribute=band)
    return SpangleDataset(attributes, use_mask_rdd=use_mask_rdd)


def _window_grid(meta, window: int):
    """First window ``(t0, wr0, wc0)`` and extent ``(images, NR, NC)`` of
    the array's window grid; ArrayError if its ids could overflow int64."""
    if window <= 0:
        raise ArrayError("window must be positive")
    if meta.ndim != 3:
        raise ArrayError("window queries expect an (x, y, image) array")
    (x0, y0, t0), (x1, y1, t1) = meta.starts, meta.ends
    first = (t0, x0 // window, y0 // window)
    extent = (t1 - t0, (x1 - 1) // window - first[1] + 1,
              (y1 - 1) // window - first[2] + 1)
    if math.prod(extent) >= 2 ** 63:
        raise ArrayError(f"window grid {extent}: window ids reach the "
                         "int64 limit 2**63")
    return first, extent


def _window_partials(array: ArrayRDD, window: int):
    """Per-chunk window partials, one packed record per non-empty chunk.

    Windows tile the (x, y) plane; images stay separate. Window
    ``(t, wr, wc)`` has the int64 id ``((t - t0) * NR + (wr - wr0)) * NC
    + (wc - wc0)`` over :func:`_window_grid`. Each record is ``(ids
    int64[n], sums float64[n], counts int64[n])``: window ``ids[i]`` has
    ``counts[i] > 0`` valid cells in this chunk summing to ``sums[i]``.

    A chunk is read as ``(indices(), values())``, never expanded to its
    dense cells: the offsets split into F-order local ``(x, y, t)``,
    each valid cell is labelled with its window over the chunk's own
    window span (small, so no sort), and two bincounts reduce the
    payload. A window straddling chunk boundaries appears in several
    records; :func:`_merge_windows` completes it on the driver.
    """
    meta = array.meta
    (t0, wr0, wc0), (_, grid_rows, grid_cols) = _window_grid(meta, window)
    cx, cy, ci = meta.chunk_shape

    def partials(part):
        for chunk_id, chunk in part:
            offsets = chunk.indices()
            if not offsets.size:
                continue
            ox, oy, ot = mapper.chunk_origin(meta, chunk_id)
            rest, x = np.divmod(offsets, cx)
            t, y = np.divmod(rest, cy)
            r0, c0 = ox // window, oy // window
            nr = (ox + cx - 1) // window - r0 + 1
            nc = (oy + cy - 1) // window - c0 + 1
            labels = ((t * nr + (ox + x) // window - r0) * nc
                      + (oy + y) // window - c0)
            span = ci * nr * nc
            counts = np.bincount(labels, minlength=span)
            sums = np.bincount(labels, weights=chunk.values(),
                               minlength=span)
            local = np.flatnonzero(counts)
            lt, cell = np.divmod(local, nr * nc)
            lr, lc = np.divmod(cell, nc)
            ids = (((ot - t0 + lt) * grid_rows + (r0 - wr0 + lr))
                   * grid_cols + (c0 - wc0 + lc))
            yield ids, sums[local], counts[local]

    return array.rdd.map_partitions(partials)


def _merge_windows(records: list, meta, window: int):
    """Complete the windows of :func:`_window_partials` records.

    One 1-D ``np.unique`` over the window ids groups the partials, two
    bincounts total them, and the ids decode back to ``(image, wr, wc)``
    rows. Returns ``(keys int64[m, 3], sums, counts)`` with one row per
    distinct window, or None when no chunk had a valid cell.
    """
    if not records:
        return None
    ids, sums, counts = (np.concatenate(column)
                         for column in zip(*records))
    uniq, inverse = np.unique(ids, return_inverse=True)
    (t0, wr0, wc0), (_, grid_rows, grid_cols) = _window_grid(meta, window)
    rest, wc = np.divmod(uniq, grid_cols)
    t, wr = np.divmod(rest, grid_rows)
    keys = np.stack([t + t0, wr + wr0, wc + wc0], axis=1)
    return (keys,
            np.bincount(inverse, weights=sums, minlength=len(uniq)),
            np.bincount(inverse, weights=counts, minlength=len(uniq)))


class SpangleRasterQueries:
    """The five Table-I queries against a SpangleDataset."""

    name = "Spangle"

    def __init__(self, dataset: SpangleDataset):
        self.dataset = dataset

    def _restricted(self, band: str, box=None) -> ArrayRDD:
        ds = self.dataset
        if box is not None:
            lo, hi = box
            ds = ds.subarray(lo, hi)
        return ds.evaluate(band)

    # ------------------------------------------------------------------

    def q1_aggregation(self, band: str, box=None) -> float:
        """Average value of selected cells (optionally in a range)."""
        return self._restricted(band, box).aggregate("avg")

    def q2_regrid(self, band: str, grid: int, box=None) -> dict:
        """Average of adjacent cells onto a grid of ``grid × grid``."""
        array = self._restricted(band, box)
        merged = _merge_windows(_window_partials(array, grid).collect(),
                                array.meta, grid)
        if merged is None:
            return {}
        keys, sums, counts = merged
        return dict(zip(map(tuple, keys.tolist()),
                        (sums / counts).tolist()))

    def q3_conditional_aggregation(self, band: str, predicate,
                                   box=None) -> float:
        """Average of cells in a range matching a condition."""
        ds = self.dataset
        if box is not None:
            ds = ds.subarray(*box)
        return ds.filter(band, predicate).evaluate(band).aggregate("avg")

    def q4_polygons(self, band: str, filter_predicate,
                    count_predicate, box=None) -> int:
        """Filter, then count observations satisfying a condition."""
        ds = self.dataset
        if box is not None:
            ds = ds.subarray(*box)
        filtered = ds.filter(band, filter_predicate).evaluate(band)
        return filtered.filter(count_predicate).count_valid()

    def q5_density(self, band: str, window: int, min_count: int,
                   box=None) -> int:
        """Windows containing more than ``min_count`` observations.

        Unlike Q2, Q5 counts observations across *all* attributes'
        shared validity — this is the query Fig. 9b uses to measure the
        MaskRDD's effect as attributes are added.
        """
        array = self._restricted(band, box)
        merged = _merge_windows(_window_partials(array, window).collect(),
                                array.meta, window)
        if merged is None:
            return 0
        _keys, _sums, counts = merged
        return int(np.count_nonzero(counts > min_count))


def reference_window_counts(valid: np.ndarray, window: int) -> dict:
    """Dense-numpy oracle for window observation counts (tests)."""
    counts = {}
    xs, ys, imgs = np.nonzero(valid)
    for x, y, img in zip(xs, ys, imgs):
        key = (int(img), int(x) // window, int(y) // window)
        counts[key] = counts.get(key, 0) + 1
    return counts
