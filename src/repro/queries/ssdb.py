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


class _WindowPartials:
    """Sink of the window queries: a partition's window partials.

    Windows tile the (x, y) plane; images stay separate. Window
    ``(t, wr, wc)`` has the int64 id ``((t - t0) * NR + (wr - wr0)) * NC
    + (wc - wc0)`` over :func:`_window_grid`. The partition's record is
    ``(ids int64[n], sums float64[n], counts int64[n])``: window
    ``ids[i]`` has ``counts[i] > 0`` valid cells in one chunk, summing
    to ``sums[i]``, chunk by chunk in the batch's order and by window
    within a chunk.

    Every valid cell of the partition gets one label: its chunk's first
    label plus its window among the few the chunk overlaps. Which of
    those a cell falls in depends only on its offset and on where the
    chunk's origin sits in the window grid, so it is read from one
    table per such phase; two bincounts then reduce the partition. A
    window straddling chunk boundaries appears once per chunk;
    :func:`_merge_windows` completes it on the driver.
    """

    label = "window_partials"

    def __init__(self, meta, window: int):
        self.meta = meta
        self.window = window
        self.grid = _window_grid(meta, window)

    def _tables(self, phases):
        """Per phase ``(px, py)``: each local offset's window label, and
        the chunk's window rows and columns."""
        window = self.window
        cx, cy, ci = self.meta.chunk_shape
        rows = (phases[:, 0] + cx - 1) // window + 1
        cols = (phases[:, 1] + cy - 1) // window + 1
        images = np.arange(ci)[None, None, :]
        tables = [((images * nr + (px + np.arange(cx)[:, None, None])
                    // window) * nc
                   + (py + np.arange(cy)[None, :, None]) // window)
                  .ravel(order="F")
                  for (px, py), nr, nc in zip(phases.tolist(), rows, cols)]
        return np.concatenate(tables), rows, cols

    def __call__(self, batch):
        if not batch.starts[-1]:
            return []
        meta, window = self.meta, self.window
        (t0, wr0, wc0), (_, grid_rows, grid_cols) = self.grid
        ox, oy, ot = np.array([mapper.chunk_origin(meta, chunk_id)
                               for chunk_id in batch.ids]).T
        phases, phase = np.unique(np.stack([ox % window, oy % window], 1),
                                  axis=0, return_inverse=True)
        phase = phase.ravel()
        table, rows, cols = self._tables(phases)
        rows, cols = rows[phase], cols[phase]
        span = meta.chunk_shape[2] * rows * cols
        first = np.cumsum(span) - span
        owner = np.repeat(np.arange(len(batch.ids)), batch.counts())
        shift = phase * meta.cells_per_chunk - batch.base
        labels = table[batch.offsets + shift[owner]] + first[owner]
        counts = np.bincount(labels, minlength=int(span.sum()))
        sums = np.bincount(labels, weights=batch.values,
                           minlength=counts.size)
        hit = np.flatnonzero(counts)
        chunk = np.searchsorted(first, hit, side="right") - 1
        lt, cell = np.divmod(hit - first[chunk], (rows * cols)[chunk])
        lr, lc = np.divmod(cell, cols[chunk])
        ids = (((ot[chunk] - t0 + lt) * grid_rows
                + ox[chunk] // window - wr0 + lr) * grid_cols
               + oy[chunk] // window - wc0 + lc)
        return [(ids, sums[hit], counts[hit])]


def _window_partials(array: ArrayRDD, window: int):
    """The RDD of window partial records (:class:`_WindowPartials`), one
    per partition with a valid cell: the array's pending plan runs with
    the partials as its sink, so no chunk is built to be read here."""
    return array._reduce(_WindowPartials(array.meta, window))


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
