"""Tests for the distributed Accumulator (accumulate_axis)."""

import pickle

import numpy as np
import pytest

from repro.core import ArrayRDD
from repro.core.accumulate import accumulate_axis
from repro.core.chunk import ChunkMode
from repro.engine import ClusterContext
from repro.errors import ArrayError


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


def reference_prefix(values, valid, axis, ufunc, identity):
    filled = np.where(valid, values, identity)
    return ufunc.accumulate(filled.astype(np.float64), axis=axis)


class TestAccumulateAxis:
    @pytest.mark.parametrize("mode", ["async", "sync"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_prefix_sum_matches_reference(self, ctx, mode, axis):
        rng = np.random.default_rng(0)
        values = rng.random((24, 30))
        valid = rng.random((24, 30)) < 0.7
        arr = ArrayRDD.from_numpy(ctx, values, (8, 10), valid=valid)
        out = accumulate_axis(arr, axis, "sum", mode=mode)
        got, got_valid = out.collect_dense(fill=0.0)
        expected = reference_prefix(values, valid, axis, np.add, 0.0)
        assert np.array_equal(got_valid, valid)
        assert np.allclose(got[valid], expected[valid])

    @pytest.mark.parametrize("op,ufunc,identity", [
        ("max", np.maximum, -np.inf),
        ("min", np.minimum, np.inf),
        ("prod", np.multiply, 1.0),
    ])
    def test_other_operators(self, ctx, op, ufunc, identity):
        rng = np.random.default_rng(1)
        values = rng.random((16, 12)) + 0.5
        arr = ArrayRDD.from_numpy(ctx, values, (4, 4))
        out = accumulate_axis(arr, 1, op)
        got, _valid = out.collect_dense()
        expected = reference_prefix(values, np.ones_like(values, bool),
                                    1, ufunc, identity)
        assert np.allclose(got, expected)

    def test_sync_and_async_agree(self, ctx):
        rng = np.random.default_rng(2)
        values = rng.random((20, 20))
        valid = rng.random((20, 20)) < 0.5
        arr = ArrayRDD.from_numpy(ctx, values, (5, 5), valid=valid)
        sync_out, sv = accumulate_axis(arr, 0, "sum",
                                       mode="sync").collect_dense(0.0)
        async_out, av = accumulate_axis(arr, 0, "sum",
                                        mode="async").collect_dense(0.0)
        assert np.array_equal(sv, av)
        assert np.allclose(sync_out[sv], async_out[av])

    def test_named_axis(self, ctx):
        rng = np.random.default_rng(3)
        values = rng.random((8, 6))
        arr = ArrayRDD.from_numpy(ctx, values, (4, 3),
                                  dim_names=("time", "sensor"))
        out = accumulate_axis(arr, "time", "sum")
        got, _v = out.collect_dense()
        assert np.allclose(got, np.cumsum(values, axis=0))

    def test_3d(self, ctx):
        rng = np.random.default_rng(4)
        values = rng.random((6, 8, 4))
        arr = ArrayRDD.from_numpy(ctx, values, (3, 4, 2))
        out = accumulate_axis(arr, 2, "sum")
        got, _v = out.collect_dense()
        assert np.allclose(got, np.cumsum(values, axis=2))

    def test_invalid_cells_pass_through(self, ctx):
        values = np.array([[1.0, 99.0, 2.0, 99.0, 4.0]])
        valid = np.array([[True, False, True, False, True]])
        arr = ArrayRDD.from_numpy(ctx, values, (1, 2), valid=valid)
        out = accumulate_axis(arr, 1, "sum")
        got, got_valid = out.collect_dense(fill=np.nan)
        assert np.array_equal(got_valid, valid)
        assert got[0, 0] == 1.0
        assert got[0, 2] == 3.0
        assert got[0, 4] == 7.0

    def test_sync_uses_more_jobs_than_async(self, ctx):
        rng = np.random.default_rng(5)
        values = rng.random((64, 8))
        arr = ArrayRDD.from_numpy(ctx, values, (8, 8)).materialize()
        before = ctx.metrics.snapshot()
        accumulate_axis(arr, 0, "sum", mode="sync").count_valid()
        sync_jobs = (ctx.metrics.snapshot() - before).jobs_run
        before = ctx.metrics.snapshot()
        accumulate_axis(arr, 0, "sum", mode="async").count_valid()
        async_jobs = (ctx.metrics.snapshot() - before).jobs_run
        assert sync_jobs > async_jobs

    def test_validation(self, ctx):
        arr = ArrayRDD.from_numpy(ctx, np.ones((4, 4)), (2, 2))
        with pytest.raises(ArrayError):
            accumulate_axis(arr, 5, "sum")
        with pytest.raises(ArrayError):
            accumulate_axis(arr, 0, "median")
        with pytest.raises(ArrayError):
            accumulate_axis(arr, 0, "sum", mode="turbo")

    def test_custom_op_pair(self, ctx):
        values = np.array([[1.0, 2.0, 3.0, 4.0]])
        arr = ArrayRDD.from_numpy(ctx, values, (1, 2))
        out = accumulate_axis(arr, 1, (np.add, 0.0))
        got, _v = out.collect_dense()
        assert np.allclose(got, [[1.0, 3.0, 6.0, 10.0]])


# ----------------------------------------------------------------------
# dense-numpy oracle sweep: ragged grids, negative starts, every forced
# chunk mode, both execution modes, sum and max, every axis
# ----------------------------------------------------------------------

GEOMETRIES = {
    "2d": ((23, 17), (5, 4), None),
    "2d_negative_starts": ((23, 17), (5, 4), (-11, -3)),
    "3d": ((7, 9, 5), (3, 4, 2), None),
    "3d_negative_starts": ((7, 9, 5), (3, 4, 2), (-4, 2, -1)),
}

OPS = {"sum": (np.add, 0.0), "max": (np.maximum, -np.inf)}


def _cells(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.random(shape) - 0.5, rng.random(shape) < 0.6


def _oracle(values, valid, axis, op):
    ufunc, identity = OPS[op]
    return ufunc.accumulate(np.where(valid, values, identity), axis=axis)


class TestDenseOracleSweep:
    @pytest.mark.parametrize("chunk_mode", list(ChunkMode),
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_matches_dense_oracle(self, ctx, geometry, mode, chunk_mode):
        shape, chunk_shape, starts = GEOMETRIES[geometry]
        values, valid = _cells(shape, seed=len(shape))
        arr = ArrayRDD.from_numpy(ctx, values, chunk_shape, valid=valid,
                                  mode=chunk_mode,
                                  starts=starts).materialize()
        for axis in range(len(shape)):
            for op in OPS:
                before = ctx.metrics.snapshot()
                out = accumulate_axis(arr, axis, op, mode=mode)
                jobs = (ctx.metrics.snapshot() - before).jobs_run
                got, got_valid = out.collect_dense(fill=0.0)
                expected = _oracle(values, valid, axis, op)
                assert np.array_equal(got_valid, valid)
                if op == "max":
                    assert np.array_equal(got[valid], expected[valid])
                else:
                    assert np.allclose(got[valid], expected[valid],
                                       rtol=1e-12, atol=1e-12)
                # sync: one barrier per chunk step along the axis;
                # async: one scan pass and one adjustment pass
                assert jobs == (arr.meta.chunk_grid[axis]
                                if mode == "sync" else 2)


def _accumulation_bytes(kwargs) -> list:
    """Every chunk of every sweep result over one geometry, pickled."""
    shape, chunk_shape, starts = GEOMETRIES["3d_negative_starts"]
    values, valid = _cells(shape, seed=3)
    out = []
    with ClusterContext(num_executors=2, default_parallelism=3,
                        **kwargs) as context:
        arr = ArrayRDD.from_numpy(context, values, chunk_shape,
                                  valid=valid, starts=starts)
        for axis in range(len(shape)):
            for op in OPS:
                for mode in ("sync", "async"):
                    result = accumulate_axis(arr, axis, op, mode=mode)
                    out.append([(chunk_id, pickle.dumps(chunk))
                                for chunk_id, chunk
                                in sorted(result.rdd.collect())])
    return out


@pytest.mark.parametrize("kwargs", [
    pytest.param({"use_threads": True}, id="thread"),
    pytest.param({"backend": "process"}, id="process"),
])
def test_accumulation_across_backends(kwargs):
    got = _accumulation_bytes(kwargs)
    assert got == _accumulation_bytes({})
    # sync and async agree to the byte as well
    assert got[0::2] == got[1::2]
