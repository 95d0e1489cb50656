"""Per-chunk references for the raster window queries.

:func:`window_partials` is the per-chunk form of the window partials
the queries compute one partition at a time
(:class:`repro.queries.ssdb._WindowPartials`): concatenated in record
order, its records must equal the batched ones byte for byte.
:func:`reference_window_counts` is a dense-numpy oracle for the window
observation counts.
"""

import numpy as np

from repro.core import mapper
from repro.queries.ssdb import _window_grid


def window_partials(array, window: int):
    """Per-chunk window partials, one packed record per non-empty chunk.

    Each record is ``(ids int64[n], sums float64[n], counts int64[n])``:
    window ``ids[i]`` has ``counts[i] > 0`` valid cells in this chunk
    summing to ``sums[i]``. A chunk is read as ``(indices(), values())``:
    the offsets split into F-order local ``(x, y, t)``, each valid cell
    is labelled with its window over the chunk's own window span, and
    two bincounts reduce the payload.
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


def reference_window_counts(valid: np.ndarray, window: int) -> dict:
    """Dense-numpy oracle for window observation counts."""
    counts = {}
    xs, ys, imgs = np.nonzero(valid)
    for x, y, img in zip(xs, ys, imgs):
        key = (int(img), int(x) // window, int(y) // window)
        counts[key] = counts.get(key, 0) + 1
    return counts
