"""Tests for ArrayMetadata and the coordinate/chunk-ID mapper."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrayMetadata, ArrayRDD
from repro.core import mapper
from repro.core.ingest import array_rdd_from_records
from repro.core.updates import merge_cells
from repro.engine import ClusterContext
from repro.errors import CoordinateError, MetadataError, TaskFailure
from repro.matrix import SpangleMatrix
from repro.ml.graph import BitmaskGraph


class TestMetadata:
    def test_basic_geometry(self):
        meta = ArrayMetadata((100, 60), (32, 32))
        assert meta.ndim == 2
        assert meta.num_cells == 6000
        assert meta.chunk_grid == (4, 2)
        assert meta.num_chunks == 8
        assert meta.cells_per_chunk == 1024
        assert meta.ends == (100, 60)

    def test_cached_geometry_leaves_identity_unchanged(self):
        meta = ArrayMetadata((100, 60, 3), (32, 32, 1), starts=(7, -5, 0))
        fresh = ArrayMetadata((100, 60, 3), (32, 32, 1), starts=(7, -5, 0))
        before = (repr(meta), hash(meta), pickle.dumps(meta))
        assert meta.chunk_grid is meta.chunk_grid
        assert meta.num_chunks == 24
        assert meta == fresh and hash(meta) == hash(fresh)
        assert (repr(meta), hash(meta), pickle.dumps(meta)) == before
        clone = pickle.loads(pickle.dumps(meta))
        assert clone == meta and clone.chunk_grid == (4, 2, 3)

    def test_starts(self):
        meta = ArrayMetadata((10, 10), (5, 5), starts=(100, -20))
        assert meta.ends == (110, -10)
        meta.check_coords((105, -15))
        with pytest.raises(CoordinateError):
            meta.check_coords((99, -15))

    def test_dim_names(self):
        meta = ArrayMetadata((4, 4, 4), (2, 2, 2),
                             dim_names=("x", "y", "time"))
        assert meta.dim_index("time") == 2
        with pytest.raises(MetadataError):
            meta.dim_index("z")

    def test_default_dim_names(self):
        meta = ArrayMetadata((4, 4), (2, 2))
        assert meta.dim_names == ("dim0", "dim1")

    def test_duplicate_dim_names_rejected(self):
        with pytest.raises(MetadataError):
            ArrayMetadata((4, 4), (2, 2), dim_names=("x", "x"))

    def test_arity_mismatches_rejected(self):
        with pytest.raises(MetadataError):
            ArrayMetadata((4, 4), (2,))
        with pytest.raises(MetadataError):
            ArrayMetadata((4,), (2,), starts=(0, 0))

    def test_nonpositive_rejected(self):
        with pytest.raises(MetadataError):
            ArrayMetadata((0, 4), (2, 2))
        with pytest.raises(MetadataError):
            ArrayMetadata((4, 4), (2, 0))

    def test_chunk_ids_past_int64_rejected(self):
        # 2**64 chunks: int64 chunk IDs wrapped, and get() missed a
        # stored cell that sum() counted
        with pytest.raises(MetadataError, match="int64"):
            ArrayMetadata((2**20,) * 4, (16,) * 4)
        with pytest.raises(MetadataError):
            ArrayMetadata((2**63,), (1,))
        assert ArrayMetadata((2**31, 2**31, 16), (4, 4, 4)).num_chunks \
            == 2**60
        assert ArrayMetadata((2**63 - 1,), (1,)).num_chunks == 2**63 - 1
        # the grid is exact integer division, not a float ceil
        assert ArrayMetadata((2**53 + 1,), (1,)).chunk_grid == (2**53 + 1,)

    def test_geometry_past_int64_rejected(self):
        # a chunk of 2**80 cells: locate's int64 offset of the last cell
        # wrapped to -1 while the scalar local_offset gave 2**80 - 1
        with pytest.raises(MetadataError, match="int64"):
            ArrayMetadata((2**40,) * 2, (2**40,) * 2)
        # a valid cell at 2**63 + 3: locate raised a bare OverflowError
        with pytest.raises(MetadataError, match="int64"):
            ArrayMetadata((10,), (4,), starts=(2**63 - 5,))
        with pytest.raises(MetadataError, match="int64"):
            ArrayMetadata((4,), (2,), starts=(-2**63 - 1,))
        # start-relative coordinates reach 2**63
        with pytest.raises(MetadataError, match="int64"):
            ArrayMetadata((2**63 + 1,), (2**62,), starts=(-2**63,))
        # the extremes themselves are addressable
        assert ArrayMetadata((5,), (2,), starts=(2**63 - 5,)).ends \
            == (2**63,)
        assert ArrayMetadata((2**63,), (2**62,),
                             starts=(-2**63,)).num_chunks == 2

    def test_check_coords_arity(self):
        meta = ArrayMetadata((4, 4), (2, 2))
        with pytest.raises(CoordinateError):
            meta.check_coords((1,))

    def test_transposed_roundtrip(self):
        meta = ArrayMetadata((3, 7), (2, 4), starts=(1, 2),
                             dim_names=("r", "c"))
        t = meta.transposed()
        assert t.shape == (7, 3)
        assert t.chunk_shape == (4, 2)
        assert t.starts == (2, 1)
        assert t.dim_names == ("c", "r")
        assert t.transposed() == meta

    def test_with_attribute_and_dtype(self):
        meta = ArrayMetadata((4,), (2,))
        assert meta.with_attribute("chl").attribute == "chl"
        assert meta.with_dtype(np.int32).dtype == np.int32

    def test_describe(self):
        meta = ArrayMetadata((4, 4), (2, 2), attribute="chl")
        assert "chl" in meta.describe()


class TestAlgorithm1:
    """Chunk-ID computation exactly as the paper's Algorithm 1."""

    def test_paper_algorithm_reference(self):
        # literal transcription of Algorithm 1, checked against ours
        meta = ArrayMetadata((10, 7, 5), (3, 2, 4))

        def reference(pos):
            chunk_id = 0
            length = 1
            for i in range(meta.ndim):
                chunk_id += (pos[i] // meta.chunk_shape[i]) * length
                length *= -(-meta.shape[i] // meta.chunk_shape[i])
            return chunk_id

        for coords in [(0, 0, 0), (9, 6, 4), (3, 2, 4), (5, 5, 1)]:
            assert mapper.chunk_id_for_coords(meta, coords) \
                == reference(coords)

    def test_dimension_zero_fastest(self):
        meta = ArrayMetadata((4, 4), (2, 2))
        assert mapper.chunk_id_for_coords(meta, (0, 0)) == 0
        assert mapper.chunk_id_for_coords(meta, (2, 0)) == 1
        assert mapper.chunk_id_for_coords(meta, (0, 2)) == 2
        assert mapper.chunk_id_for_coords(meta, (2, 2)) == 3

    def test_ids_are_dense_and_unique(self):
        meta = ArrayMetadata((6, 5), (2, 3))
        ids = {
            mapper.chunk_id_for_coords(meta, (i, j))
            for i in range(6) for j in range(5)
        }
        assert ids == set(range(meta.num_chunks))

    def test_chunk_coords_inverse(self):
        meta = ArrayMetadata((10, 7, 5), (3, 2, 4))
        for chunk_id in range(meta.num_chunks):
            grid = mapper.chunk_coords_from_id(meta, chunk_id)
            assert mapper.chunk_id_from_chunk_coords(meta, grid) == chunk_id

    def test_chunk_id_out_of_range(self):
        meta = ArrayMetadata((4, 4), (2, 2))
        with pytest.raises(CoordinateError):
            mapper.chunk_coords_from_id(meta, 4)

    def test_chunk_origin(self):
        meta = ArrayMetadata((6, 6), (2, 3), starts=(10, 20))
        assert mapper.chunk_origin(meta, 0) == (10, 20)
        last = meta.num_chunks - 1
        assert mapper.chunk_origin(meta, last) == (14, 23)

    def test_nonzero_starts(self):
        meta = ArrayMetadata((4, 4), (2, 2), starts=(100, 200))
        assert mapper.chunk_id_for_coords(meta, (100, 200)) == 0
        assert mapper.chunk_id_for_coords(meta, (103, 203)) == 3


class TestLocalOffsets:
    def test_offset_order_matches_chunk_id_order(self):
        meta = ArrayMetadata((4, 4), (2, 2))
        # dimension 0 fastest within a chunk too
        assert mapper.local_offset(meta, (0, 0)) == 0
        assert mapper.local_offset(meta, (1, 0)) == 1
        assert mapper.local_offset(meta, (0, 1)) == 2
        assert mapper.local_offset(meta, (1, 1)) == 3

    def test_coords_for_offset_inverse(self):
        meta = ArrayMetadata((5, 7), (2, 3), starts=(3, -2))
        for i in range(3, 8):
            for j in range(-2, 5):
                cid = mapper.chunk_id_for_coords(meta, (i, j))
                off = mapper.local_offset(meta, (i, j))
                assert mapper.coords_for_offset(meta, cid, off) == (i, j)

    def test_vectorized_matches_scalar(self):
        meta = ArrayMetadata((9, 11, 4), (4, 3, 2), starts=(1, 0, -1))
        rng = np.random.default_rng(0)
        coords = np.stack([
            rng.integers(1, 10, 200),
            rng.integers(0, 11, 200),
            rng.integers(-1, 3, 200),
        ], axis=1)
        ids, offs = mapper.locate(meta, coords)
        for k in range(coords.shape[0]):
            c = tuple(coords[k])
            assert ids[k] == mapper.chunk_id_for_coords(meta, c)
            assert offs[k] == mapper.local_offset(meta, c)

    def test_coords_for_offsets_array(self):
        meta = ArrayMetadata((5, 5), (2, 2))
        offsets = np.arange(4)
        coords = mapper.coords_for_offsets_array(meta, 3, offsets)
        for k, off in enumerate(offsets):
            assert tuple(coords[k]) == mapper.coords_for_offset(
                meta, 3, int(off))

    def test_bad_matrix_shape(self):
        meta = ArrayMetadata((4, 4), (2, 2))
        with pytest.raises(CoordinateError):
            mapper.locate(meta, np.zeros((3, 3)))


class TestRangeQueries:
    def test_chunk_ids_in_range_full(self):
        meta = ArrayMetadata((8, 8), (4, 4))
        assert mapper.chunk_ids_in_range(meta, (0, 0), (7, 7)) == [0, 1, 2, 3]

    def test_chunk_ids_in_range_single(self):
        meta = ArrayMetadata((8, 8), (4, 4))
        assert mapper.chunk_ids_in_range(meta, (5, 1), (6, 2)) == [1]

    def test_chunk_ids_in_range_clips(self):
        meta = ArrayMetadata((8, 8), (4, 4))
        assert mapper.chunk_ids_in_range(meta, (-5, -5), (100, 2)) == [0, 1]

    def test_chunk_ids_empty_outside(self):
        meta = ArrayMetadata((8, 8), (4, 4))
        assert mapper.chunk_ids_in_range(meta, (100, 100), (200, 200)) == []

    def test_inverted_range_rejected(self):
        meta = ArrayMetadata((8, 8), (4, 4))
        with pytest.raises(CoordinateError):
            mapper.chunk_ids_in_range(meta, (5, 5), (1, 1))

    def test_range_mask_for_chunk(self):
        meta = ArrayMetadata((4, 4), (2, 2))
        mask = mapper.range_mask_for_chunk(meta, 0, (1, 1), (3, 3))
        # chunk 0 covers (0..1, 0..1); only (1,1) is inside the range
        expected = np.zeros(4, dtype=bool)
        expected[mapper.local_offset(meta, (1, 1))] = True
        assert np.array_equal(mask, expected)

    def test_in_bounds_mask_for_edge_chunk(self):
        meta = ArrayMetadata((3, 3), (2, 2))
        # last chunk covers (2..3, 2..3) logically but only (2,2) exists
        mask = mapper.in_bounds_mask_for_chunk(meta, meta.num_chunks - 1)
        assert mask.sum() == 1
        assert mask[0]


@settings(max_examples=60)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    chunk=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    data=st.data(),
)
def test_mapper_bijection_property(shape, chunk, data):
    """(chunk_id, offset) identifies each in-bounds cell uniquely."""
    meta = ArrayMetadata(shape, chunk)
    i = data.draw(st.integers(0, shape[0] - 1))
    j = data.draw(st.integers(0, shape[1] - 1))
    cid = mapper.chunk_id_for_coords(meta, (i, j))
    off = mapper.local_offset(meta, (i, j))
    assert 0 <= cid < meta.num_chunks
    assert 0 <= off < meta.cells_per_chunk
    assert mapper.coords_for_offset(meta, cid, off) == (i, j)


@st.composite
def geometries(draw):
    """1-4-D metadata: negative starts, ragged last chunks and chunks
    larger than the array."""
    ndim = draw(st.integers(1, 4))
    return ArrayMetadata(
        tuple(draw(st.integers(1, 7)) for _ in range(ndim)),
        tuple(draw(st.integers(1, 9)) for _ in range(ndim)),
        starts=tuple(draw(st.integers(-6, 6)) for _ in range(ndim)))


@settings(max_examples=120, deadline=None)
@given(meta=geometries(), data=st.data())
def test_locate_property(meta, data):
    """``locate`` equals scalar Algorithm 1 and the dense chunk-major
    layout row by row; the first row outside raises ``check_coords``'s
    error."""
    n = data.draw(st.integers(0, 12))
    coords = np.array(
        [[data.draw(st.integers(s, e - 1))
          for s, e in zip(meta.starts, meta.ends)] for _ in range(n)],
        dtype=np.int64).reshape(n, meta.ndim)
    for row in sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)),
                                        max_size=2 if n else 0))):
        axis = data.draw(st.integers(0, meta.ndim - 1))
        coords[row, axis] = data.draw(st.one_of(
            st.integers(meta.starts[axis] - 9, meta.starts[axis] - 1),
            st.integers(meta.ends[axis], meta.ends[axis] + 9)))
    inside = [all(s <= c < e for c, s, e in
                  zip(row, meta.starts, meta.ends)) for row in coords]
    if not all(inside):
        with pytest.raises(CoordinateError) as want:
            meta.check_coords(coords[inside.index(False)])
        with pytest.raises(CoordinateError) as got:
            mapper.locate(meta, coords)
        assert str(got.value) == str(want.value)
        return
    ids, offsets = mapper.locate(meta, coords)
    for row, cid, offset in zip(coords, ids, offsets):
        assert cid == mapper.chunk_id_for_coords(meta, row)
        assert offset == mapper.local_offset(meta, row)
    rows = mapper.chunk_major(
        meta, np.arange(meta.num_cells).reshape(meta.shape))
    flat = np.ravel_multi_index(tuple((coords - meta.starts).T),
                                meta.shape)
    assert np.array_equal(rows[ids, offsets], flat)


@st.composite
def int64_geometries(draw):
    """Accepted 1-4-D geometries up to the int64 limits: extents and
    chunks up to 2**62 cells or 2**63 along an axis, negative starts
    and ragged last chunks."""
    ndim = draw(st.integers(1, 4))
    chunk_bits, grid_bits = 62, 62
    shape, chunk, starts = [], [], []
    for _axis in range(ndim):
        bits = draw(st.integers(0, chunk_bits))
        chunk_bits -= bits
        chunk.append(draw(st.integers(1, 2**bits)))
        bits = draw(st.integers(0, grid_bits))
        grid_bits -= bits
        grid = draw(st.integers(1, 2**bits))
        size = min(draw(st.integers((grid - 1) * chunk[-1] + 1,
                                    grid * chunk[-1])), 2**63)
        shape.append(size)
        starts.append(draw(st.integers(-2**63, 2**63 - size)))
    return ArrayMetadata(tuple(shape), tuple(chunk), starts=tuple(starts))


@settings(max_examples=150, deadline=None)
@given(meta=int64_geometries(), data=st.data())
def test_locate_matches_scalar_up_to_int64_limits(meta, data):
    """On every accepted geometry, however large, ``locate`` equals the
    scalar Algorithm 1 in Python ints, corner cells included."""
    rows = [[data.draw(st.one_of(st.sampled_from([s, e - 1]),
                                 st.integers(s, e - 1)))
             for s, e in zip(meta.starts, meta.ends)] for _ in range(4)]
    rows.append([e - 1 for e in meta.ends])
    ids, offsets = mapper.locate(meta, np.array(rows, dtype=np.int64))
    for row, cid, offset in zip(rows, ids.tolist(), offsets.tolist()):
        assert cid == mapper.chunk_id_for_coords(meta, row)
        assert offset == mapper.local_offset(meta, row)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=40))
def test_runs_by_chunk_matches_grouping_oracle(chunk_ids):
    """One run per distinct ID, ascending, in the cells' input order."""
    want = {}
    for position, cid in enumerate(chunk_ids):
        want.setdefault(cid, []).append(position)
    positions = np.arange(len(chunk_ids))
    runs = list(mapper.runs_by_chunk(np.array(chunk_ids, dtype=np.int64),
                                     positions, positions * 0.5))
    assert [cid for cid, _p, _h in runs] == sorted(want)
    for cid, position, half in runs:
        assert type(cid) is int
        assert position.tolist() == want[cid]
        assert half.tolist() == [p * 0.5 for p in want[cid]]


def _build_cells(builder, ctx, meta, cells):
    """The chunk RDD ``builder`` makes of ``(coords, value)`` cells."""
    coords = np.array([c for c, _v in cells])
    values = [v for _c, v in cells]
    if builder == "ingest":
        return array_rdd_from_records(ctx, cells, meta).rdd
    if builder == "from_coo":
        return SpangleMatrix.from_coo(ctx, coords[:, 0], coords[:, 1],
                                      values, meta.shape,
                                      meta.chunk_shape).array.rdd
    if builder == "merge_cells":
        empty = ArrayRDD.from_numpy(ctx, np.zeros(meta.shape),
                                    meta.chunk_shape,
                                    valid=np.zeros(meta.shape, bool))
        return merge_cells(empty, cells).rdd
    # a graph's coordinates are (dst, src); its edges are (src, dst)
    return BitmaskGraph.from_edges(ctx, coords[:, ::-1], meta.shape[0],
                                   block_size=meta.chunk_shape[0]).rdd


@pytest.mark.parametrize("config", [dict(), dict(backend="process")],
                         ids=["serial", "process"])
@pytest.mark.parametrize("builder",
                         ["ingest", "from_coo", "merge_cells", "from_edges"])
def test_cell_outside_array_is_rejected(builder, config):
    """A cell outside the array raises and is never stored as some
    other chunk's cell ((4, 0) used to land on (0, 2) of a 4x4 array)."""
    meta = ArrayMetadata((4, 4), (2, 2))
    with ClusterContext(num_executors=2, **config) as ctx:
        inside = _build_cells(builder, ctx, meta, [((1, 1), 5.0)])
        assert [cid for cid, _chunk in inside.collect()] == [0]
        with pytest.raises((CoordinateError, TaskFailure)) as info:
            _build_cells(builder, ctx, meta,
                         [((1, 1), 5.0), ((4, 0), 7.0)]).collect()
    error = info.value
    if isinstance(error, TaskFailure):
        error = error.cause
    assert isinstance(error, CoordinateError)
