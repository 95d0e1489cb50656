"""Tests for cell upserts and deletions."""

import numpy as np
import pytest

from repro.core import ArrayRDD, ChunkMode, mapper
from repro.core.updates import delete_region, delete_where, merge_cells
from repro.engine import ClusterContext
from repro.errors import ArrayError


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


def base_array(ctx, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    data = rng.random((16, 16))
    valid = rng.random((16, 16)) < density
    return ArrayRDD.from_numpy(ctx, data, (8, 8), valid=valid), \
        data, valid


class TestMergeCells:
    def test_insert_new_cells(self, ctx):
        arr, _data, valid = base_array(ctx)
        empty = [tuple(map(int, c)) for c in np.argwhere(~valid)[:5]]
        updates = [(coords, 42.0) for coords in empty]
        merged = merge_cells(arr, updates)
        assert merged.count_valid() == int(valid.sum()) + 5
        for coords in empty:
            assert merged.get(coords) == 42.0

    def test_replace_existing(self, ctx):
        arr, data, valid = base_array(ctx, seed=1)
        target = tuple(map(int, np.argwhere(valid)[0]))
        merged = merge_cells(arr, [(target, -1.0)], how="replace")
        assert merged.get(target) == -1.0

    def test_keep_existing(self, ctx):
        arr, data, valid = base_array(ctx, seed=2)
        target = tuple(map(int, np.argwhere(valid)[0]))
        merged = merge_cells(arr, [(target, -1.0)], how="keep")
        assert merged.get(target) == pytest.approx(data[target])

    def test_sum(self, ctx):
        arr, data, valid = base_array(ctx, seed=3)
        target = tuple(map(int, np.argwhere(valid)[0]))
        merged = merge_cells(arr, [(target, 10.0)], how="sum")
        assert merged.get(target) == pytest.approx(data[target] + 10.0)

    def test_custom_resolver(self, ctx):
        arr, data, valid = base_array(ctx, seed=4)
        target = tuple(map(int, np.argwhere(valid)[0]))
        merged = merge_cells(arr, [(target, 3.0)],
                             how=lambda old, new: np.maximum(old, new))
        assert merged.get(target) == pytest.approx(
            max(data[target], 3.0))

    def test_update_into_empty_chunk(self, ctx):
        data = np.zeros((16, 16))
        valid = np.zeros((16, 16), dtype=bool)
        valid[0, 0] = True
        arr = ArrayRDD.from_numpy(ctx, data, (8, 8), valid=valid)
        assert arr.num_chunks_materialized() == 1
        merged = merge_cells(arr, [((12, 12), 5.0)])
        assert merged.num_chunks_materialized() == 2
        assert merged.get((12, 12)) == 5.0
        assert merged.get((0, 0)) == 0.0

    def test_untouched_cells_survive(self, ctx):
        arr, data, valid = base_array(ctx, seed=5)
        merged = merge_cells(arr, [((0, 0), 9.0)])
        values, got_valid = merged.collect_dense()
        expected_valid = valid.copy()
        expected_valid[0, 0] = True
        assert np.array_equal(got_valid, expected_valid)
        check = valid.copy()
        check[0, 0] = False
        assert np.allclose(values[check], data[check])

    def test_empty_updates_are_noop(self, ctx):
        arr, _d, _v = base_array(ctx, seed=6)
        assert merge_cells(arr, []) is arr

    def test_duplicate_coordinates_rejected(self, ctx):
        arr, _d, _v = base_array(ctx, seed=7)
        with pytest.raises(ArrayError):
            merge_cells(arr, [((0, 0), 1.0), ((0, 0), 2.0)])

    def test_unknown_resolver_rejected(self, ctx):
        arr, _d, _v = base_array(ctx, seed=8)
        with pytest.raises(ArrayError):
            merge_cells(arr, [((0, 0), 1.0)], how="average")

    def test_out_of_bounds_rejected(self, ctx):
        from repro.errors import CoordinateError

        arr, _d, _v = base_array(ctx, seed=9)
        with pytest.raises(CoordinateError):
            merge_cells(arr, [((99, 0), 1.0)])


class TestDeletion:
    def test_delete_region(self, ctx):
        arr, _data, valid = base_array(ctx, density=1.0, seed=10)
        out = delete_region(arr, (4, 4), (11, 11))
        _values, got_valid = out.collect_dense()
        expected = valid.copy()
        expected[4:12, 4:12] = False
        assert np.array_equal(got_valid, expected)

    def test_delete_region_drops_empty_chunks(self, ctx):
        arr, _d, _v = base_array(ctx, density=1.0, seed=11)
        out = delete_region(arr, (0, 0), (7, 7))
        assert out.num_chunks_materialized() == 3

    @pytest.mark.parametrize("mode", list(ChunkMode))
    def test_delete_region_matches_dense_oracle(self, ctx, mode):
        rng = np.random.default_rng(14)
        data = rng.random((24, 24))
        valid = rng.random((24, 24)) < 0.3
        valid[4:8, 0:8] = False
        arr = ArrayRDD.from_numpy(ctx, data, (8, 8), valid=valid,
                                  mode=mode)
        before = dict(arr.rdd.collect())
        assert {chunk.mode for chunk in before.values()} == {mode}
        out = delete_region(arr, (4, 0), (15, 11))
        after = dict(out.rdd.collect())
        values, got_valid = out.collect_dense()
        expected = valid.copy()
        expected[4:16, 0:12] = False
        assert np.array_equal(got_valid, expected)
        assert np.array_equal(values[expected], data[expected])

        def chunk_at(coords):
            return mapper.chunk_id_for_coords(arr.meta, coords)

        # the box holds every cell of the chunk at rows 8-15, cols 0-7
        assert chunk_at((8, 0)) in before
        assert chunk_at((8, 0)) not in after
        # it overlaps the chunk at rows 0-7, cols 0-7 only where that
        # chunk stores no cell, so the chunk passes through
        assert after[chunk_at((0, 0))] is before[chunk_at((0, 0))]
        assert after[chunk_at((0, 16))] is before[chunk_at((0, 16))]

    def test_delete_where(self, ctx):
        arr, data, valid = base_array(ctx, density=0.8, seed=12)
        out = delete_where(arr, lambda xs: xs > 0.5)
        _values, got_valid = out.collect_dense()
        expected = valid & ~(np.where(valid, data, 0) > 0.5)
        assert np.array_equal(got_valid, expected)

    def test_delete_then_reinsert(self, ctx):
        arr, _data, _valid = base_array(ctx, density=1.0, seed=13)
        deleted = delete_region(arr, (0, 0), (15, 15))
        assert deleted.count_valid() == 0
        restored = merge_cells(
            ArrayRDD(deleted.rdd, deleted.meta, ctx),
            [((3, 3), 1.5)])
        assert restored.count_valid() == 1
        assert restored.get((3, 3)) == 1.5
