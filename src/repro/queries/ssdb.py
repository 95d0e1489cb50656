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


def _window_partials(array: ArrayRDD, window: int):
    """Per-chunk window partials, one packed record per non-empty chunk.

    Windows tile the (x, y) plane; images stay separate. Each record is
    ``(keys int64[n, 3], sums float64[n], counts int64[n])``: row ``i``
    is the window ``(image, wr, wc)`` with ``counts[i] > 0`` valid cells
    in this chunk summing to ``sums[i]``. A window straddling chunk
    boundaries appears in several records; :func:`_merge_windows`
    completes it on the driver.
    """
    if window <= 0:
        raise ArrayError("window must be positive")
    meta = array.meta
    if meta.ndim != 3:
        raise ArrayError("window queries expect an (x, y, image) array")
    cx, cy, ci = meta.chunk_shape

    def partials(part):
        for chunk_id, chunk in part:
            origin = mapper.chunk_origin(meta, chunk_id)
            valid = chunk.valid_bools().reshape((cx, cy, ci), order="F")
            if not valid.any():
                continue
            dense = chunk.to_dense(0.0).reshape((cx, cy, ci), order="F")
            # dense payloads keep stale values under cleared mask bits
            filled = np.where(valid, dense, 0.0)
            aligned = (
                cx % window == 0 and cy % window == 0
                and origin[0] % window == 0 and origin[1] % window == 0
            )
            if aligned:
                # fast path: windows tile the chunk exactly — one
                # reshape-reduce per chunk
                wr0 = origin[0] // window
                wc0 = origin[1] // window
                nr = cx // window
                nc = cy // window
                sums = filled.reshape(nr, window, nc, window, ci) \
                             .sum(axis=(1, 3))
                counts = valid.reshape(nr, window, nc, window, ci) \
                              .sum(axis=(1, 3))
            else:
                # general path: label every cell with its chunk-local
                # window and group with one bincount per statistic
                rows = (origin[0] + np.arange(cx)) // window
                cols = (origin[1] + np.arange(cy)) // window
                wr0, wc0 = int(rows[0]), int(cols[0])
                nr = int(rows[-1]) - wr0 + 1
                nc = int(cols[-1]) - wc0 + 1
                labels = (((rows - wr0)[:, None, None] * nc
                           + (cols - wc0)[None, :, None]) * ci
                          + np.arange(ci)[None, None, :]).ravel()
                size = nr * nc * ci
                sums = np.bincount(labels, weights=filled.ravel(),
                                   minlength=size).reshape(nr, nc, ci)
                counts = np.bincount(labels, weights=valid.ravel(),
                                     minlength=size).reshape(nr, nc, ci)
            wr, wc, t = np.nonzero(counts > 0)
            keys = np.stack([origin[2] + t, wr0 + wr, wc0 + wc], axis=1)
            yield (keys.astype(np.int64, copy=False),
                   sums[wr, wc, t].astype(np.float64, copy=False),
                   counts[wr, wc, t].astype(np.int64))

    return array.rdd.map_partitions(partials)


def _merge_windows(records: list):
    """Complete the windows of :func:`_window_partials` records.

    Returns ``(keys int64[m, 3], sums, counts)`` with one row per
    distinct window, or None when no chunk had a valid cell.
    """
    if not records:
        return None
    keys, sums, counts = (np.concatenate(column)
                          for column in zip(*records))
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()   # numpy 2.0.0 returns it as a column
    return (uniq,
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
        merged = _merge_windows(_window_partials(array, grid).collect())
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
        merged = _merge_windows(_window_partials(array, window).collect())
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
