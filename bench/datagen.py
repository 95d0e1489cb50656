"""Seeded input generators for the five benchmark workloads.

Every input the benchmark feeds the program is made here, from the
``--seed`` argument alone: the same seed gives the same arrays, byte
for byte. Nothing is read from :mod:`repro.data` — the program under
test receives only the generated numpy arrays.

A run generates its inputs once, before any clock starts. The
generators are vectorised all the same: a Python loop per object or
edge would take longer than the 15 seconds a run measures for.
"""

from __future__ import annotations

import numpy as np


def sky_scenes(seed: int, num_images: int, size: int,
               objects_per_image: int, bands=("u", "g", "r"),
               radius: int = 3):
    """SDSS-like ``(x, y, image)`` cubes: ``({band: values}, valid)``.

    Each image holds ``objects_per_image`` point-spread objects on an
    empty (null) sky; all bands share the object positions — the same
    stars through different filters — so one validity cube serves every
    band, which is what makes the shared MaskRDD worth having.
    """
    rng = np.random.default_rng(seed)
    dy, dx = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    kernel = np.exp(-(dx ** 2 + dy ** 2) / (radius * 0.7) ** 2).ravel()
    rows = rng.integers(radius, size - radius,
                        (num_images, objects_per_image))
    cols = rng.integers(radius, size - radius,
                        (num_images, objects_per_image))
    brightness = rng.lognormal(2.0, 0.8, (num_images, objects_per_image))
    image = np.arange(num_images)[:, None, None]
    # linear C-order index into the (size, size, num_images) cube of
    # every pixel of every object's patch
    index = ((rows[:, :, None] + dy.ravel()) * size
             + (cols[:, :, None] + dx.ravel())) * num_images + image
    weights = brightness[:, :, None] * kernel
    cells = size * size * num_images
    base = np.bincount(index.ravel(), weights=weights.ravel(),
                       minlength=cells)
    invalid = base == 0.0      # every object pixel carries flux > 0
    shape = (size, size, num_images)
    # one scratch buffer for all bands: a fresh 50 MB array per
    # temporary costs up to 0.25 s whenever the kernel has to build
    # huge pages for it
    scratch = np.empty(cells)
    cubes = {}
    for band_index, band in enumerate(bands):
        cube = rng.normal(0.0, 0.05, cells)
        np.multiply(base, 0.5 + 0.25 * band_index, out=scratch)
        cube += scratch
        np.putmask(cube, invalid, 0.0)
        cubes[band] = cube.reshape(shape)
    return cubes, ~invalid.reshape(shape)


def lookup_points(seed: int, valid: np.ndarray, count: int) -> np.ndarray:
    """``(count, ndim)`` cell coordinates for point lookups.

    Half are drawn from the valid cells (hits), half uniformly from
    the whole array (on a 4 %-valid sky nearly all of them misses).
    """
    rng = np.random.default_rng(seed + 1)
    hits = np.argwhere(valid)
    hits = hits[rng.choice(len(hits), count // 2, replace=False)]
    anywhere = np.column_stack(
        [rng.integers(0, extent, count - count // 2)
         for extent in valid.shape])
    points = np.concatenate([hits, anywhere])
    return points[rng.permutation(count)]


def zipf_graph(seed: int, num_vertices: int, num_edges: int,
               exponent: float = 1.1) -> np.ndarray:
    """``(m, 2)`` directed ``(src, dst)`` edges, Zipf in-degrees.

    Sources are uniform; destination ``v`` is drawn with weight
    ``(v + 1) ** -exponent``, so the hubs are the low vertex ids and
    the first block row of the adjacency holds most of the edges — the
    skew nnz-balanced block placement exists for. Duplicate edges are
    left in (the bitmask collapses them).
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_vertices + 1) ** exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    dst = np.searchsorted(cdf, rng.random(num_edges))
    src = rng.integers(0, num_vertices, num_edges)
    return np.stack([src, dst], axis=1).astype(np.int64)


def skewed_matrix(seed: int, size: int, block: int, hot_axis: int,
                  hot_blocks: int = 2, density_hot: float = 0.25,
                  density_cold: float = 0.004) -> np.ndarray:
    """Integer-valued sparse matrix with power-law block densities.

    ``hot_axis=0`` concentrates nonzeros in ``hot_blocks`` row blocks,
    ``hot_axis=1`` in column blocks (the HOT/COLD densities of
    ``benchmarks/test_sparse_matmul.py``). Small integer values keep
    ``a @ b`` exact in float64, so the oracle compares with equality.
    """
    rng = np.random.default_rng(seed)
    grid = size // block
    density = np.full(grid, density_cold)
    density[rng.choice(grid, size=hot_blocks, replace=False)] = \
        density_hot
    per_line = np.repeat(density, block)
    threshold = per_line[:, None] if hot_axis == 0 else per_line[None, :]
    keep = rng.random((size, size)) < threshold
    values = rng.integers(1, 5, (size, size)).astype(np.float64)
    values *= rng.choice((-1.0, 1.0), (size, size))
    return np.where(keep, values, 0.0)


def masked_cube(seed: int, shape, valid_fraction: float):
    """Uniform random values with an independent validity mask."""
    rng = np.random.default_rng(seed)
    values = rng.random(shape)
    valid = rng.random(shape) < valid_fraction
    return np.where(valid, values, 0.0), valid


def _smooth(field: np.ndarray, passes: int) -> np.ndarray:
    out = field
    for _ in range(passes):
        for axis in range(out.ndim):
            out = (out + np.roll(out, 1, axis)
                   + np.roll(out, -1, axis)) / 3.0
    return out


def chl_grid(seed: int, lat: int, lon: int, steps: int):
    """CHL-like ``(lat, lon, time)`` grid, ~34 % valid: ``(values, valid)``.

    Three latitude bands with very different validity — ocean (dense
    chunks), coast (sparse) and open land with a few lakes
    (super-sparse) — so one ingest encodes all three ``ChunkMode``s.
    The land mask is spatially smooth and the same at every time step;
    5 % of retrievals drop out per step (clouds).
    """
    rng = np.random.default_rng(seed)
    terrain = _smooth(rng.normal(size=(lat, lon)), passes=3)
    ocean = np.empty((lat, lon), dtype=bool)
    third = lat // 3
    for lo, hi, fraction in ((0, third, 0.93),
                             (third, 2 * third, 0.12),
                             (2 * third, lat, 0.003)):
        cut = np.quantile(terrain[lo:hi], 1.0 - fraction)
        ocean[lo:hi] = terrain[lo:hi] > cut
    values = np.exp(0.5 * rng.normal(size=(lat, lon, steps)))
    clouds = rng.random((lat, lon, steps)) < 0.05
    valid = ocean[:, :, None] & ~clouds
    return np.where(valid, values, 0.0), valid


def lr_dataset(seed: int, train_rows: int, test_rows: int,
               num_features: int, informative_features: int = 80,
               informative_per_row: int = 8, noise_per_row: int = 16,
               label_noise: float = 0.01) -> dict:
    """KDD-2012-like sparse binary classification, train + test COO.

    A small pool of informative features carries a planted linear
    separator; the rest of each row is sparse noise. Both splits share
    the separator. Returned per split: ``rows, cols, values, labels``.
    """
    rng = np.random.default_rng(seed)
    informative = rng.choice(num_features, informative_features,
                             replace=False)
    weights = np.zeros(num_features)
    weights[informative] = rng.normal(scale=3.0,
                                      size=informative_features)
    nnz = informative_per_row + noise_per_row

    def split(num_rows):
        rows = np.repeat(np.arange(num_rows, dtype=np.int64), nnz)
        cols = np.empty((num_rows, nnz), dtype=np.int64)
        cols[:, :informative_per_row] = rng.choice(
            informative, size=(num_rows, informative_per_row))
        cols[:, informative_per_row:] = rng.integers(
            0, num_features, (num_rows, noise_per_row))
        cols = cols.ravel()
        values = rng.random(rows.size) + 0.1
        scores = np.bincount(rows, weights=values * weights[cols],
                             minlength=num_rows)
        labels = (scores > 0).astype(np.float64)
        flips = rng.random(num_rows) < label_noise
        labels[flips] = 1.0 - labels[flips]
        return {"rows": rows, "cols": cols, "values": values,
                "labels": labels}

    return {"train": split(train_rows), "test": split(test_rows),
            "num_features": num_features}
