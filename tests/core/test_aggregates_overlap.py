"""Tests for the Aggregator framework, Accumulator, and overlap/stencil."""

import numpy as np
import pytest

from repro.core import ArrayRDD
from repro.core.accumulate import accumulate_axis
from repro.core.aggregates import (
    AvgAggregator,
    resolve_aggregator,
    scalar_aggregator,
)
from repro.core.overlap import expanded_chunks, mean_stencil, stencil
from repro.engine import ClusterContext
from repro.errors import ArrayError, MetadataError


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


class TestAggregatorFramework:
    def test_builtins_resolve(self):
        for name in ("sum", "count", "min", "max", "avg"):
            assert resolve_aggregator(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ArrayError):
            resolve_aggregator("median")

    def test_bad_type(self):
        with pytest.raises(ArrayError):
            resolve_aggregator(42)

    def test_instance_passthrough(self):
        agg = AvgAggregator()
        assert resolve_aggregator(agg) is agg

    def test_four_function_contract(self):
        agg = resolve_aggregator("avg")
        state = agg.initialize()
        state = agg.accumulate(state, np.array([1.0, 2.0]))
        other = agg.accumulate(agg.initialize(), np.array([6.0]))
        merged = agg.merge(state, other)
        assert agg.evaluate(merged) == pytest.approx(3.0)

    def test_scalar_user_aggregator(self, ctx):
        # user-defined product aggregator built from scalar functions
        product = scalar_aggregator(
            "product",
            initialize=lambda: 1.0,
            accumulate_one=lambda state, v: state * v,
            merge=lambda a, b: a * b,
        )
        data = np.array([[2.0, 3.0], [4.0, 1.0]])
        arr = ArrayRDD.from_numpy(ctx, data, (1, 2))
        assert arr.aggregate(product) == pytest.approx(24.0)

    def test_min_max_merge_none(self):
        agg = resolve_aggregator("min")
        assert agg.merge(None, 3.0) == 3.0
        assert agg.merge(3.0, None) == 3.0
        agg = resolve_aggregator("max")
        assert agg.merge(None, None) is None


def _accumulate(ctx, values, valid, chunk_shape, axis, op="sum",
                mode="sync"):
    """``accumulate_axis`` over a materialized array:
    ``(values, valid, jobs)``, where ``jobs`` counts the barriers the
    call ran — the final collect is left out."""
    arr = ArrayRDD.from_numpy(ctx, values, chunk_shape,
                              valid=valid).materialize()
    before = ctx.metrics.snapshot()
    out = accumulate_axis(arr, axis, op, mode=mode)
    jobs = (ctx.metrics.snapshot() - before).jobs_run
    got, got_valid = out.collect_dense(fill=np.nan)
    return got, got_valid, jobs


class TestAccumulator:
    """Section V-B's Accumulator, as ``accumulate_axis`` runs it."""

    def test_sync_prefix_sum(self, ctx):
        values = np.arange(12.0).reshape(3, 4)
        got, _valid, jobs = _accumulate(ctx, values, None, (3, 2), 1)
        assert np.allclose(got, np.cumsum(values, axis=1))
        assert jobs == 2

    def test_async_matches_sync_for_sum(self, ctx):
        rng = np.random.default_rng(0)
        values = rng.random((8, 10))
        valid = rng.random((8, 10)) < 0.7
        sync, sync_valid, _jobs = _accumulate(ctx, values, valid,
                                              (3, 10), 0)
        got, got_valid, jobs = _accumulate(ctx, values, valid, (3, 10), 0,
                                           mode="async")
        assert np.array_equal(got_valid, sync_valid)
        assert np.allclose(got[valid], sync[valid])
        assert jobs == 2

    def test_sync_steps_grow_with_chunks(self, ctx):
        values = np.ones((1, 20))
        *_, fine = _accumulate(ctx, values, None, (1, 2), 1)
        *_, coarse = _accumulate(ctx, values, None, (1, 10), 1)
        assert fine == 10
        assert coarse == 2

    def test_invalid_cells_pass_through(self, ctx):
        values = np.array([[1.0, 99.0, 2.0]])
        valid = np.array([[True, False, True]])
        got, got_valid, _jobs = _accumulate(ctx, values, valid, (1, 2), 1)
        assert np.array_equal(got_valid, valid)
        assert np.allclose(got[valid], [1.0, 3.0])

    def test_maximum_accumulation(self, ctx):
        values = np.array([[3.0, 1.0, 5.0, 2.0]])
        got, _valid, _jobs = _accumulate(ctx, values, None, (1, 2), 1,
                                         op="max")
        assert np.allclose(got[0], [3.0, 3.0, 5.0, 5.0])

    def test_bad_inputs(self, ctx):
        arr = ArrayRDD.from_numpy(ctx, np.ones((2, 2)), (1, 1))
        for axis in (5, -1):
            with pytest.raises(ArrayError):
                accumulate_axis(arr, axis)
        with pytest.raises(MetadataError):
            accumulate_axis(arr, "nope")
        for op in ("median", 42):
            with pytest.raises(ArrayError):
                accumulate_axis(arr, 0, op)
        with pytest.raises(ArrayError):
            accumulate_axis(arr, 0, mode="turbo")


class TestOverlap:
    def test_expanded_chunks_carry_neighbour_cells(self, ctx):
        # a 2x2 chunk grid of distinct constants: each expanded chunk
        # must see its neighbours' values in the halo
        data = np.zeros((8, 8))
        data[:4, :4] = 1.0
        data[4:, :4] = 2.0
        data[:4, 4:] = 3.0
        data[4:, 4:] = 4.0
        arr = ArrayRDD.from_numpy(ctx, data, (4, 4))
        expanded = dict(expanded_chunks(arr, depth=1).collect())
        values, valid = expanded[0]  # top-left chunk (dim0 fastest)
        assert values.shape == (6, 6)
        core = values[1:5, 1:5]
        assert (core == 1.0).all()
        assert (values[5, 1:5] == 2.0).all()   # dim0 neighbour
        assert (values[1:5, 5] == 3.0).all()   # dim1 neighbour
        assert values[5, 5] == 4.0             # diagonal
        assert not valid[0, 0]                 # outside the array

    def test_stencil_identity(self, ctx):
        rng = np.random.default_rng(1)
        data = rng.random((16, 16))
        arr = ArrayRDD.from_numpy(ctx, data, (8, 8))
        core = lambda v, m, d: v[d[0]:-d[0], d[1]:-d[1]]  # noqa: E731
        out = stencil(arr, core, depth=2)
        values, valid = out.collect_dense()
        assert valid.all()
        assert np.allclose(values, data)

    def test_mean_stencil_matches_reference(self, ctx):
        rng = np.random.default_rng(2)
        data = rng.random((20, 20))
        arr = ArrayRDD.from_numpy(ctx, data, (5, 5))
        out = stencil(arr, mean_stencil(1), depth=1)
        values, valid = out.collect_dense()
        assert valid.all()
        # brute-force reference: mean over the clipped 3x3 window
        for i in (0, 7, 13, 19):
            for j in (0, 6, 12, 19):
                window = data[max(0, i - 1):i + 2, max(0, j - 1):j + 2]
                assert values[i, j] == pytest.approx(window.mean())

    def test_stencil_respects_validity(self, ctx):
        data = np.ones((8, 8))
        valid = np.ones((8, 8), dtype=bool)
        valid[0, :] = False
        arr = ArrayRDD.from_numpy(ctx, data, (4, 4), valid=valid)
        out = stencil(arr, mean_stencil(1), depth=1)
        _values, got_valid = out.collect_dense()
        assert np.array_equal(got_valid, valid)

    def test_stencil_shuffles_less_than_full_join(self, ctx):
        rng = np.random.default_rng(3)
        data = rng.random((64, 64))
        arr = ArrayRDD.from_numpy(ctx, data, (16, 16)).materialize()
        before = ctx.metrics.snapshot()
        stencil(arr, mean_stencil(1), depth=1).count_valid()
        halo_bytes = (ctx.metrics.snapshot() - before).shuffle_bytes
        # halo exchange must move far less than the whole array once
        whole_array_bytes = arr.memory_bytes()
        assert halo_bytes < whole_array_bytes / 2

    def test_depth_validation(self, ctx):
        arr = ArrayRDD.from_numpy(ctx, np.ones((8, 8)), (4, 4))
        with pytest.raises(ArrayError):
            expanded_chunks(arr, 0)
        with pytest.raises(ArrayError):
            expanded_chunks(arr, 5)

    def test_stencil_shape_check(self, ctx):
        from repro.errors import TaskFailure

        arr = ArrayRDD.from_numpy(ctx, np.ones((8, 8)), (4, 4))
        bad = lambda v, m, d: v  # noqa: E731  (returns expanded shape)
        with pytest.raises(TaskFailure) as excinfo:
            stencil(arr, bad, depth=1).count_valid()
        assert isinstance(excinfo.value.cause, ArrayError)
