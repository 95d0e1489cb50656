"""Algorithm 1 over huge sparse extents, against a dict of cells.

Each geometry spans 2**40 cells or more, with negative starts and
ragged last chunks, and holds a few hundred valid cells. Every operator
is checked against a plain ``{coords: value}`` computation in Python
integers; chunk IDs and offsets are decoded here, not through
:mod:`repro.core.mapper`, so a wrap shared by ingest and decode would
still show.
"""

import random

import pytest

from repro.core import ArrayMetadata
from repro.core.ingest import array_rdd_from_records
from repro.core.reshape import rechunk
from repro.engine import ClusterContext
from repro.io.store import load_array, save_array

GEOMETRIES = {
    "2d": dict(shape=(2**21 + 5, 2**20 + 3), chunk_shape=(1000, 777),
               starts=(-2**35, -17), rechunk=(4096, 50)),
    "3d": dict(shape=(2**14 + 1, 2**15 + 7, 2**12 + 3),
               chunk_shape=(100, 300, 64), starts=(-5000, 2**20, -1),
               rechunk=(512, 41, 8)),
}


def _grid(meta):
    return [-(-size // interval)
            for size, interval in zip(meta.shape, meta.chunk_shape)]


def _coords(meta, chunk_id, offset):
    """Algorithm 1 inverted in Python integers (dimension 0 fastest)."""
    coords = []
    for start, interval, grid in zip(meta.starts, meta.chunk_shape,
                                     _grid(meta)):
        chunk_id, position = divmod(chunk_id, grid)
        offset, local = divmod(offset, interval)
        coords.append(start + position * interval + local)
    return tuple(coords)


def _cells(array) -> dict:
    cells = {}
    for chunk_id, chunk in array.rdd.collect():
        for offset, value in zip(chunk.indices().tolist(),
                                 chunk.values().tolist()):
            cells[_coords(array.meta, chunk_id, offset)] = value
    return cells


def _records(meta, rng, count):
    """``count`` distinct cells: every corner, each axis's last ragged
    chunk, and random cells; integer values, so every sum is exact."""
    lows, highs = meta.starts, [s + n - 1 for s, n in
                                zip(meta.starts, meta.shape)]
    cells = set()
    for corner in range(2 ** meta.ndim):
        cells.add(tuple(highs[a] if corner >> a & 1 else lows[a]
                        for a in range(meta.ndim)))
    for axis in range(meta.ndim):
        ragged = highs[axis] - (meta.shape[axis] % meta.chunk_shape[axis])
        cells.add(tuple(ragged + 1 if a == axis else lows[a]
                        for a in range(meta.ndim)))
    while len(cells) < count:
        cells.add(tuple(rng.randint(lo, hi)
                        for lo, hi in zip(lows, highs)))
    return {cell: float(rng.randint(-50, 50)) for cell in sorted(cells)}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_operators_match_a_dict_of_cells(name, tmp_path):
    geometry = dict(GEOMETRIES[name])
    new_chunk_shape = geometry.pop("rechunk")
    meta = ArrayMetadata(**geometry)
    assert meta.num_cells >= 2**40
    rng = random.Random(name)
    oracle = _records(meta, rng, 300)
    with ClusterContext(num_executors=2, default_parallelism=3) as ctx:
        array = array_rdd_from_records(ctx, oracle.items(), meta).cache()
        assert _cells(array) == oracle

        hits = rng.sample(sorted(oracle), 8)
        highs = [s + n - 1 for s, n in zip(meta.starts, meta.shape)]
        misses = []
        while len(misses) < 8:
            cell = tuple(rng.randint(lo, hi)
                         for lo, hi in zip(meta.starts, highs))
            if cell not in oracle:
                misses.append(cell)
        for cell in hits + misses:
            assert array.get(cell) == oracle.get(cell)

        # a box across chunk boundaries, from the low corner in
        ordered = sorted(oracle)
        lo = meta.starts
        hi = ordered[len(ordered) // 2]
        inside = {cell: value for cell, value in oracle.items()
                  if all(a <= c <= b for a, c, b in zip(lo, cell, hi))}
        assert _cells(array.subarray(lo, hi)) == inside

        kept = (0,) if meta.ndim == 2 else (0, 2)
        sums = {}
        for cell, value in oracle.items():
            key = tuple(cell[a] for a in kept)
            sums[key] = sums.get(key, 0.0) + value
        assert _cells(array.aggregate_by(kept, "sum")) == sums

        moved = rechunk(array, new_chunk_shape)
        assert moved.meta.chunk_shape == new_chunk_shape
        assert _cells(moved) == oracle

        save_array(array, tmp_path / "store")
        loaded = load_array(ctx, tmp_path / "store")
        assert loaded.meta == meta
        assert _cells(loaded) == oracle

