"""Tests for ArrayRDD: creation, operators, aggregation."""

import numpy as np
import pytest

from repro.core import ArrayRDD
from repro.core.ingest import array_rdd_from_records, generate_array_rdd
from repro.core.metadata import ArrayMetadata
from repro.engine import ClusterContext
from repro.errors import ArrayError, ShapeMismatchError


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


def random_array(ctx, shape=(40, 30), chunk=(16, 16), density=0.4, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.random(shape)
    valid = rng.random(shape) < density
    arr = ArrayRDD.from_numpy(ctx, data, chunk, valid=valid)
    return arr, data, valid


class TestCreation:
    def test_roundtrip(self, ctx):
        arr, data, valid = random_array(ctx)
        values, got_valid = arr.collect_dense()
        assert np.array_equal(got_valid, valid)
        assert np.allclose(values[valid], data[valid])

    def test_empty_chunks_not_materialized(self, ctx):
        data = np.zeros((8, 8))
        valid = np.zeros((8, 8), dtype=bool)
        valid[0, 0] = True
        arr = ArrayRDD.from_numpy(ctx, data, (4, 4), valid=valid)
        assert arr.num_chunks_materialized() == 1
        assert arr.meta.num_chunks == 4

    def test_nan_treated_as_null(self, ctx):
        data = np.array([[1.0, np.nan], [3.0, 4.0]])
        arr = ArrayRDD.from_numpy(ctx, data, (2, 2))
        assert arr.count_valid() == 3
        assert arr.get((0, 1)) is None

    def test_edge_chunks(self, ctx):
        # shape not divisible by chunk: padding cells must stay invalid
        data = np.arange(35.0).reshape(7, 5)
        arr = ArrayRDD.from_numpy(ctx, data, (4, 4))
        assert arr.count_valid() == 35
        values, valid = arr.collect_dense()
        assert valid.all()
        assert np.allclose(values, data)

    def test_valid_shape_mismatch(self, ctx):
        with pytest.raises(ShapeMismatchError):
            ArrayRDD.from_numpy(ctx, np.zeros((4, 4)), (2, 2),
                                valid=np.ones((4, 3), dtype=bool))

    def test_from_records(self, ctx):
        meta = ArrayMetadata((6, 6), (3, 3))
        records = [((i, j), float(i * 10 + j))
                   for i in range(6) for j in range(6) if (i + j) % 2 == 0]
        arr = array_rdd_from_records(ctx, records, meta)
        assert arr.count_valid() == len(records)
        assert arr.get((2, 2)) == 22.0
        assert arr.get((0, 1)) is None

    def test_generate_array_rdd(self, ctx):
        meta = ArrayMetadata((20,), (5,))

        def cells(i):
            return [((j,), float(j)) for j in range(i * 5, i * 5 + 5)]

        arr = generate_array_rdd(ctx, meta, cells, 4)
        assert arr.count_valid() == 20
        assert arr.sum() == sum(range(20))

    def test_3d(self, ctx):
        rng = np.random.default_rng(1)
        data = rng.random((10, 8, 6))
        arr = ArrayRDD.from_numpy(ctx, data, (4, 4, 3))
        values, valid = arr.collect_dense()
        assert valid.all()
        assert np.allclose(values, data)

    def test_collect_dense_keeps_float_results_of_int_array(self, ctx):
        # scalar ops and map_values keep the int input's metadata; the
        # collected values must still carry the float results
        data = np.arange(16).reshape(4, 4)
        arr = ArrayRDD.from_numpy(ctx, data, (2, 2))
        scaled, valid = (arr * 0.5).collect_dense(fill=-1)
        assert valid.all()
        assert np.array_equal(scaled, data * 0.5)
        mapped, _valid = arr.map_values(lambda xs: xs / 4) \
            .collect_dense(fill=0)
        assert np.array_equal(mapped, data / 4)
        ints, _valid = arr.collect_dense(fill=-1)
        assert ints.dtype == data.dtype
        assert np.array_equal(ints, data)


class TestPointQueries:
    def test_get_valid(self, ctx):
        arr, data, valid = random_array(ctx, seed=2)
        i, j = map(int, np.argwhere(valid)[0])
        assert arr.get((i, j)) == pytest.approx(data[i, j])

    def test_get_invalid(self, ctx):
        arr, _data, valid = random_array(ctx, seed=3)
        i, j = map(int, np.argwhere(~valid)[0])
        assert arr.get((i, j)) is None

    def test_get_out_of_bounds(self, ctx):
        arr, _d, _v = random_array(ctx)
        with pytest.raises(Exception):
            arr.get((1000, 0))


class TestOperators:
    def test_map_values(self, ctx):
        arr, data, valid = random_array(ctx, seed=4)
        scaled = arr.map_values(lambda xs: xs * 10)
        values, got_valid = scaled.collect_dense()
        assert np.array_equal(got_valid, valid)
        assert np.allclose(values[valid], data[valid] * 10)

    def test_filter(self, ctx):
        arr, data, valid = random_array(ctx, density=0.8, seed=5)
        high = arr.filter(lambda xs: xs > 0.5)
        _values, got_valid = high.collect_dense()
        expected = valid & (np.where(valid, data, 0) > 0.5)
        assert np.array_equal(got_valid, expected)

    def test_filter_drops_empty_chunks(self, ctx):
        arr, _d, _v = random_array(ctx, density=1.0, seed=6)
        none_left = arr.filter(lambda xs: xs > 2.0)
        assert none_left.num_chunks_materialized() == 0
        assert none_left.count_valid() == 0

    def test_subarray(self, ctx):
        arr, data, valid = random_array(ctx, density=1.0, seed=7)
        sub = arr.subarray((5, 10), (20, 25))
        _values, got_valid = sub.collect_dense()
        expected = np.zeros_like(valid)
        expected[5:21, 10:26] = True
        assert np.array_equal(got_valid, expected)

    def test_subarray_prunes_chunks_by_id(self, ctx):
        arr, _d, _v = random_array(ctx, (64, 64), (16, 16),
                                   density=1.0, seed=8)
        sub = arr.subarray((0, 0), (15, 15))
        assert sub.num_chunks_materialized() == 1

    def test_combine_and(self, ctx):
        a, adata, avalid = random_array(ctx, density=0.5, seed=9)
        b, bdata, bvalid = random_array(ctx, density=0.5, seed=10)
        out = a.combine(b, np.add, how="and")
        values, got_valid = out.collect_dense()
        both = avalid & bvalid
        assert np.array_equal(got_valid, both)
        assert np.allclose(values[both], (adata + bdata)[both])

    def test_combine_or(self, ctx):
        a, adata, avalid = random_array(ctx, density=0.3, seed=11)
        b, bdata, bvalid = random_array(ctx, density=0.3, seed=12)
        out = a.combine(b, np.add, how="or")
        values, got_valid = out.collect_dense()
        either = avalid | bvalid
        expected = (np.where(avalid, adata, 0)
                    + np.where(bvalid, bdata, 0))
        assert np.array_equal(got_valid, either)
        assert np.allclose(values[either], expected[either])

    def test_combine_shape_mismatch(self, ctx):
        a, _d, _v = random_array(ctx, (40, 30))
        b, _d2, _v2 = random_array(ctx, (30, 40))
        with pytest.raises(ShapeMismatchError):
            a.combine(b, np.add)

    def test_combine_bad_how(self, ctx):
        a, _d, _v = random_array(ctx)
        with pytest.raises(ArrayError):
            a.combine(a, np.add, how="nand")


class TestAggregation:
    def test_scalar_aggregates(self, ctx):
        arr, data, valid = random_array(ctx, density=0.6, seed=13)
        masked = data[valid]
        assert arr.sum() == pytest.approx(masked.sum())
        assert arr.min() == pytest.approx(masked.min())
        assert arr.max() == pytest.approx(masked.max())
        assert arr.avg() == pytest.approx(masked.mean())

    def test_aggregate_empty(self, ctx):
        data = np.zeros((4, 4))
        arr = ArrayRDD.from_numpy(
            ctx, data, (2, 2), valid=np.zeros((4, 4), dtype=bool))
        assert arr.sum() == 0.0
        assert arr.min() is None
        assert arr.avg() is None

    def test_aggregate_by_one_axis(self, ctx):
        arr, data, valid = random_array(ctx, density=1.0, seed=14)
        by_row = arr.aggregate_by([0], "sum")
        values, got_valid = by_row.collect_dense()
        assert got_valid.all()
        assert np.allclose(values, data.sum(axis=1))

    def test_aggregate_by_named_axis(self, ctx):
        rng = np.random.default_rng(15)
        data = rng.random((6, 8))
        arr = ArrayRDD.from_numpy(ctx, data, (3, 4),
                                  dim_names=("lat", "lon"))
        by_lon = arr.aggregate_by(["lon"], "avg")
        values, got_valid = by_lon.collect_dense()
        assert got_valid.all()
        assert np.allclose(values, data.mean(axis=0))

    def test_aggregate_by_respects_validity(self, ctx):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        valid = np.array([[True, False], [True, True]])
        arr = ArrayRDD.from_numpy(ctx, data, (1, 2), valid=valid)
        by_col = arr.aggregate_by([1], "sum")
        values, got_valid = by_col.collect_dense()
        assert got_valid.all()
        assert np.allclose(values, [4.0, 4.0])

    def test_aggregate_by_bad_dims(self, ctx):
        arr, _d, _v = random_array(ctx)
        with pytest.raises(ArrayError):
            arr.aggregate_by([])
        with pytest.raises(ArrayError):
            arr.aggregate_by([0, 0])

    def test_count_valid_and_memory(self, ctx):
        arr, _data, valid = random_array(ctx, seed=16)
        assert arr.count_valid() == int(valid.sum())
        assert arr.memory_bytes() > 0


class TestCaching:
    def test_cache_materialize(self, ctx):
        arr, _d, valid = random_array(ctx, seed=17)
        arr.materialize()
        before = ctx.metrics.snapshot()
        assert arr.count_valid() == int(valid.sum())
        delta = ctx.metrics.snapshot() - before
        assert delta.cache_hits > 0

    def test_unpersist(self, ctx):
        arr, _d, _v = random_array(ctx, seed=18)
        arr.materialize()
        arr.unpersist()
        assert ctx.cache.block_count() == 0

    @pytest.mark.parametrize("derive", [
        pytest.param(lambda a: (a * 2).cache(), id="cached_derived"),
        pytest.param(lambda a: a.cache(), id="cached_source"),
    ])
    def test_unpersist_derived_keeps_parent_cache(self, ctx, derive):
        arr, _d, _v = random_array(ctx, seed=19)
        parent = derive(arr)
        parent.count_valid()
        cached = ctx.cache.block_count()
        assert cached > 0
        # unpersisting an array drops only its own RDD's blocks: these
        # children were never computed, so nothing of theirs is cached
        (parent + 1).unpersist()
        parent.subarray((0, 0), (15, 15)).unpersist()
        assert ctx.cache.block_count() == cached
        parent.unpersist()
        assert ctx.cache.block_count() == 0
