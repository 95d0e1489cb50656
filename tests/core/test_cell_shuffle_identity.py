"""Cells change chunks one way: the piece shuffle matches the per-cell one.

Record ingest, ``rechunk``, ``permute_axes`` and the matrix transpose
move cells as one ``(chunk_id, (offsets, values))`` piece per source
partition and destination chunk. The per-cell reference
(:mod:`tests._reference.cells`: scalar Algorithm 1, one
``(chunk_id, (offset, value))`` pair per cell) must build chunks that
pickle byte for byte the same, on the serial and the process backend,
over negative starts, ragged edge chunks, 1-3 axes and int values
ingested into float metadata. The mechanism test checks that ingest
shuffles one record per piece, not one per cell.
"""

import pickle

import numpy as np
import pytest

from repro.core import ArrayRDD, ChunkMode, mapper
from repro.core.ingest import array_rdd_from_records, generate_array_rdd
from repro.core.metadata import ArrayMetadata
from repro.core.reshape import permute_axes, rechunk
from repro.engine import ClusterContext
from repro.errors import ArrayError, CoordinateError, TaskFailure
from repro.matrix import SpangleMatrix
from tests._reference import cells as reference

BACKENDS = [pytest.param({}, id="serial"),
            pytest.param({"backend": "process"}, id="process")]
#: (shape, chunk_shape, starts): ragged last chunks, negative starts
GEOMETRIES = [
    pytest.param(((30, 30), (8, 8), (0, 0)), id="2d"),
    pytest.param(((17, 11), (5, 4), (-6, 3)), id="2d-ragged-negative"),
    pytest.param(((23,), (7,), (-10,)), id="1d-ragged-negative"),
    pytest.param(((6, 5, 4), (4, 2, 3), (-1, 0, 2)), id="3d-ragged"),
]
NUM_PARTITIONS = 3


@pytest.fixture(scope="module", params=BACKENDS)
def ctx(request):
    with ClusterContext(num_executors=2, default_parallelism=NUM_PARTITIONS,
                        **request.param) as context:
        yield context


def _by_chunk(records):
    return sorted(records, key=lambda record: record[0])


def _same_chunks(got, expected):
    got, expected = _by_chunk(got.collect()), _by_chunk(expected.collect())
    assert [cid for cid, _ in got] == [cid for cid, _ in expected]
    assert pickle.dumps(got) == pickle.dumps(expected)


def _records(meta, kind, seed=0):
    """About half the cells of ``meta`` as shuffled ``(coords, value)``
    records; ``kind`` picks float, int or NaN/-0.0 float values."""
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*[np.arange(s, e) for s, e in
                          zip(meta.starts, meta.ends)], indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    coords = coords[rng.random(len(coords)) < 0.5]
    coords = coords[rng.permutation(len(coords))]
    if kind == "int":
        values = rng.integers(-50, 50, len(coords)).tolist()
    else:
        values = rng.normal(size=len(coords))
        if kind == "nan":
            values[::5] = np.nan
            values[1::5] = -0.0
        values = values.tolist()
    return [(tuple(c), v) for c, v in zip(coords.tolist(), values)]


def _array(ctx, geometry, mode=None, seed=1):
    shape, chunk_shape, starts = geometry
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    values[rng.random(shape) < 0.2] = -0.0
    values[rng.random(shape) < 0.1] = np.nan
    valid = rng.random(shape) < 0.6
    return ArrayRDD.from_numpy(ctx, values, chunk_shape, valid=valid,
                               starts=starts, mode=mode,
                               num_partitions=NUM_PARTITIONS)


@pytest.mark.parametrize("kind", ["float", "int", "nan"])
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_ingest_matches_per_cell_reference(ctx, geometry, kind):
    meta = ArrayMetadata(geometry[0], geometry[1], starts=geometry[2])
    records = _records(meta, kind)
    got = array_rdd_from_records(ctx, records, meta)
    expected = reference.ingest_cells(
        ctx.parallelize(records, NUM_PARTITIONS), meta, NUM_PARTITIONS)
    _same_chunks(got.rdd, expected)
    # int values land in the float64 payload the metadata names
    assert {chunk.dtype for _cid, chunk in got.rdd.collect()} \
        == {np.dtype(np.float64)}


@pytest.mark.parametrize("mode", [None, *ChunkMode],
                         ids=lambda m: getattr(m, "name", "policy"))
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_rechunk_matches_per_cell_reference(ctx, geometry, mode):
    arr = _array(ctx, geometry, mode)
    for chunk_shape in ([c + 3 for c in geometry[1]],
                        [max(1, c - 2) for c in geometry[1]]):
        chunk_shape = tuple(chunk_shape)
        got = rechunk(arr, chunk_shape)
        assert got.meta.chunk_shape == chunk_shape
        _same_chunks(got.rdd, reference.move_cells(
            arr, range(arr.meta.ndim), chunk_shape))


@pytest.mark.parametrize("geometry", GEOMETRIES[1:])
def test_permute_axes_matches_per_cell_reference(ctx, geometry):
    arr = _array(ctx, geometry)
    order = tuple(range(arr.meta.ndim))[::-1]
    got = permute_axes(arr, order)
    _same_chunks(got.rdd, reference.move_cells(
        arr, order, tuple(arr.meta.chunk_shape[a] for a in order)))


@pytest.mark.parametrize("sparse_zeros", [True, False])
def test_transpose_matches_per_cell_reference(ctx, sparse_zeros):
    rng = np.random.default_rng(4)
    dense = rng.normal(size=(19, 13))
    dense[rng.random(dense.shape) < 0.5] = 0.0
    m = SpangleMatrix.from_numpy(ctx, dense, (6, 5),
                                 sparse_zeros=sparse_zeros,
                                 num_partitions=NUM_PARTITIONS)
    t = m.transpose()
    assert t.meta == m.meta.transposed()
    _same_chunks(t.array.rdd, reference.move_cells(m.array, (1, 0), (5, 6)))


def test_ingest_shuffles_one_record_per_piece(ctx):
    """``shuffle_records`` counts (source partition, destination chunk)
    pieces, not cells."""
    meta = ArrayMetadata((40, 40), (10, 10), starts=(-5, 0))
    records = _records(meta, "float", seed=3)
    parts = [records[i::4] for i in range(4)]
    pieces = sum(len({mapper.chunk_id_for_coords(meta, c) for c, _v in part})
                 for part in parts)
    before = ctx.metrics.snapshot()
    arr = generate_array_rdd(ctx, meta, parts.__getitem__, 4)
    assert sum(chunk.valid_count for _cid, chunk in arr.rdd.collect()) \
        == len(records)
    delta = ctx.metrics.snapshot() - before
    assert delta.shuffle_records == pieces < len(records)


def _raised(error_info):
    error = error_info.value
    return error.cause if isinstance(error, TaskFailure) else error


@pytest.mark.parametrize("same_partition", [True, False])
def test_duplicate_coordinates_raise(ctx, same_partition):
    meta = ArrayMetadata((6, 6), (4, 4), starts=(-2, 0))
    records = [((1, 1), 1.0), ((3, 2), 2.0), ((1, 1), 3.0)]
    if same_partition:
        records = [records]
    else:
        records = [records[:2], records[2:]]
    with pytest.raises((ArrayError, TaskFailure)) as info:
        generate_array_rdd(ctx, meta, records.__getitem__,
                           len(records)).rdd.collect()
    assert isinstance(_raised(info), ArrayError)


@pytest.mark.parametrize("cell", [(4, 0), (-3, 1), (0, 5)])
def test_cell_outside_ragged_array_raises(ctx, cell):
    """Outside the array but inside an edge chunk's padding, or before a
    negative start: never stored as another cell."""
    meta = ArrayMetadata((6, 5), (4, 4), starts=(-2, 0))
    with pytest.raises((CoordinateError, TaskFailure)) as info:
        array_rdd_from_records(ctx, [((1, 1), 1.0), (cell, 2.0)],
                               meta).rdd.collect()
    assert isinstance(_raised(info), CoordinateError)


def test_rechunk_keeps_results_wider_than_the_metadata(ctx):
    """A map over an int array keeps its int metadata but yields floats;
    moving the cells must not cast them back."""
    arr = ArrayRDD.from_numpy(ctx, np.arange(20).reshape(4, 5), (2, 2))
    halves = arr.map_values(lambda v: v * 0.5)
    assert halves.meta.dtype == np.int64
    values, valid = rechunk(halves, (3, 4)).collect_dense()
    assert valid.all()
    assert np.array_equal(values, np.arange(20).reshape(4, 5) * 0.5)
