"""Task-closure picklability: every public transformation must ship.

The process backend serializes a task's RDD lineage — wrapper
callables, user lambdas, captured closure cells — with
:mod:`repro.engine.closure` and rebuilds it in a worker. These tests
round-trip each public transformation's task through
``task_dumps``/``task_loads`` in-process (no fork needed) and assert
the rebuilt task produces byte-identical partition output.

:class:`TestOperatorTasksShip` does the same for the array, matrix and
ML operators on a serial context: every job pickles its whole lineage
first, so a task that captures a matrix, a context or a lock fails
here, without a worker, and (with the suite's by-reference guard in
``tests/conftest.py``) so does any ``repro`` closure.
"""

import pickle

import numpy as np
import pytest

from repro.core import ArrayRDD, MaskRDD
from repro.core.accumulate import accumulate_axis
from repro.core.overlap import mean_stencil, stencil
from repro.core.reshape import rechunk
from repro.core.stats import approx_quantiles, describe, histogram
from repro.core.updates import delete_region, delete_where, merge_cells
from repro.core.windows import window_aggregate
from repro.engine import ClusterContext, HashPartitioner, MetricsRegistry, Tracer
from repro.engine.closure import task_dumps, task_loads
from repro.engine.worker import (
    ResultTask,
    TaskBlockCache,
    WorkerContext,
    bind_lineage,
)
from repro.io.store import load_array, save_array
from repro.matrix import SpangleMatrix, SpangleVector
from repro.matrix.multiply import prepare_local
from repro.ml import BitmaskGraph, DistributedSamples, LogisticRegression
from repro.ml.pagerank import pagerank
from repro.ml.sgd import SampleChunk

_OFFSET = 7  # captured by reference-pickled module-level UDFs


def _module_udf(x):
    return x * 3 + _OFFSET


# Each builder returns an RDD whose lineage exercises one public
# transformation; lambdas capture locals so closure cells ship too.

def _build_map(ctx):
    base = 5
    return ctx.parallelize(range(40), 4).map(lambda x: x * 2 + base)


def _build_map_module_udf(ctx):
    return ctx.parallelize(range(40), 4).map(_module_udf)


def _build_filter(ctx):
    keep = {0, 2}
    return ctx.parallelize(range(40), 4).filter(lambda x: x % 4 in keep)


def _build_flat_map(ctx):
    return ctx.parallelize(range(20), 4).flat_map(lambda x: [x, -x])


def _build_map_partitions(ctx):
    return ctx.parallelize(range(40), 4) \
              .map_partitions(lambda part: [sum(part)])


def _build_map_partitions_with_index(ctx):
    return ctx.parallelize(range(40), 4) \
              .map_partitions_with_index(
                  lambda index, part: [(index, x) for x in part])


def _build_zip_partitions(ctx):
    left = ctx.parallelize(range(20), 4)
    right = ctx.parallelize(range(100, 120), 4)
    return left.zip_partitions(right,
                               lambda a, b: [x + y for x, y in zip(a, b)])


def _build_values(ctx):
    return ctx.parallelize([(i % 3, i) for i in range(30)], 3).values()


def _build_map_values(ctx):
    scale = 10
    return ctx.parallelize([(i % 3, i) for i in range(30)], 3) \
              .map_values(lambda v: v * scale)


def _build_flat_map_values(ctx):
    return ctx.parallelize([(i % 3, i) for i in range(15)], 3) \
              .flat_map_values(lambda v: [v, v + 100])


def _build_reduce_by_key(ctx):
    return ctx.parallelize([(i % 5, i) for i in range(50)], 4) \
              .reduce_by_key(lambda a, b: a + b)


def _build_combine_by_key(ctx):
    return ctx.parallelize([(i % 4, i) for i in range(40)], 4) \
              .combine_by_key(lambda v: [v],
                              lambda acc, v: acc + [v],
                              lambda a, b: a + b)


def _build_group_by_key(ctx):
    return ctx.parallelize([(i % 4, i * i) for i in range(32)], 4) \
              .group_by_key()


def _build_count_by_key_shape(ctx):
    # count_by_key is an action; its map-side ``(key, 1)`` lineage is
    # what ships, so exercise that shape
    return ctx.parallelize([(i % 3, i) for i in range(30)], 3) \
              .map_values(lambda _v: 1).reduce_by_key(lambda a, b: a + b)


def _build_partition_by(ctx):
    return ctx.parallelize([(i % 8, i) for i in range(48)], 4) \
              .partition_by(HashPartitioner(3))


def _build_join(ctx):
    left = ctx.parallelize([(i % 4, i) for i in range(24)], 3)
    right = ctx.parallelize([(i % 4, chr(65 + i)) for i in range(8)], 2)
    return left.join(right)


def _build_left_outer_join(ctx):
    left = ctx.parallelize([(i % 5, i) for i in range(25)], 3)
    right = ctx.parallelize([(0, "z"), (1, "y")], 2)
    return left.left_outer_join(right)


def _build_full_outer_join(ctx):
    left = ctx.parallelize([(0, "a"), (2, "b")], 2)
    right = ctx.parallelize([(1, "x"), (2, "y")], 2)
    return left.full_outer_join(right)


def _build_cogroup(ctx):
    left = ctx.parallelize([(i % 3, i) for i in range(15)], 3)
    right = ctx.parallelize([(i % 3, -i) for i in range(9)], 3)
    return left.cogroup(right)


TRANSFORMS = {
    "map": _build_map,
    "map_module_udf": _build_map_module_udf,
    "filter": _build_filter,
    "flat_map": _build_flat_map,
    "map_partitions": _build_map_partitions,
    "map_partitions_with_index": _build_map_partitions_with_index,
    "zip_partitions": _build_zip_partitions,
    "values": _build_values,
    "map_values": _build_map_values,
    "flat_map_values": _build_flat_map_values,
    "reduce_by_key": _build_reduce_by_key,
    "combine_by_key": _build_combine_by_key,
    "group_by_key": _build_group_by_key,
    "count_by_key_shape": _build_count_by_key_shape,
    "partition_by": _build_partition_by,
    "join": _build_join,
    "left_outer_join": _build_left_outer_join,
    "full_outer_join": _build_full_outer_join,
    "cogroup": _build_cogroup,
}


def _worker_context():
    metrics = MetricsRegistry()
    return WorkerContext(metrics, Tracer(enabled=False),
                         TaskBlockCache(metrics, {}))


class TestTaskRoundTrip:
    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_round_trip_output_identical(self, name):
        with ClusterContext(num_executors=2) as ctx:
            rdd = TRANSFORMS[name](ctx)
            # materialize pending shuffle stages the way a job would;
            # the reduce side then ships with its map output inline
            for stage in ctx.scheduler.stage_graph(rdd)[0]:
                stage.node.fetch_buckets(stage.which)
            for index in range(rdd.num_partitions):
                expected = list(rdd.compute(index))
                clone = task_loads(task_dumps(
                    ResultTask(rdd, index, list)))
                bind_lineage(clone.roots(), _worker_context())
                got = clone.run()
                assert pickle.dumps(got) == pickle.dumps(expected), \
                    f"partition {index} diverged after pickling"

    def test_unpickled_lineage_drops_driver_context(self):
        with ClusterContext(num_executors=2) as ctx:
            rdd = ctx.parallelize(range(8), 2).map(lambda x: x + 1)
            clone = task_loads(task_dumps(ResultTask(rdd, 0, list)))
            assert clone.rdd.context is None
            assert clone.rdd.dependencies[0].context is None


class TestClosureSerialization:
    def test_module_function_ships_by_reference(self):
        clone = task_loads(task_dumps(_module_udf))
        assert clone is _module_udf

    def test_lambda_ships_by_value_with_cells(self):
        captured = 42
        clone = task_loads(task_dumps(lambda x: x + captured))
        assert clone(1) == 43

    def test_lambda_globals_ship_by_value(self):
        clone = task_loads(task_dumps(lambda x: _module_udf(x) - _OFFSET))
        assert clone(5) == 15


# ----------------------------------------------------------------------
# the array, matrix and ML operators' own tasks
# ----------------------------------------------------------------------

def _cube(ctx):
    rng = np.random.default_rng(3)
    values = rng.random((12, 10))
    return ArrayRDD.from_numpy(ctx, values, (4, 3), valid=values > 0.3,
                               starts=(-2, 5))


def _matrices(ctx):
    rng = np.random.default_rng(5)
    left = rng.random((12, 9)) * (rng.random((12, 9)) > 0.6)
    right = rng.random((9, 8)) * (rng.random((9, 8)) > 0.6)
    return (SpangleMatrix.from_numpy(ctx, left, (4, 3)),
            SpangleMatrix.from_numpy(ctx, right, (3, 4)))


def _samples(ctx):
    rng = np.random.default_rng(7)
    rows, cols = np.nonzero(rng.random((64, 12)) > 0.7)
    return DistributedSamples.from_coo(
        ctx, rows, cols, rng.random(rows.size), rng.random(64) > 0.5, 12,
        chunk_rows=8, num_partitions=3)


def _generated_chunk(p_id):
    rng = np.random.default_rng(p_id)
    rows, cols = np.nonzero(rng.random((6, 5)) > 0.5)
    yield SampleChunk(rows, cols, rng.random(rows.size),
                      (rng.random(6) > 0.5).astype(float), 6)


def _store_round_trip(ctx, tmp_path):
    save_array(_cube(ctx), tmp_path / "cube")
    return load_array(ctx, tmp_path / "cube").collect_dense()


def _masks(ctx):
    cube = _cube(ctx)
    low = MaskRDD.from_array_rdd(cube.filter(lambda xs: xs < 0.5))
    high = MaskRDD.from_array_rdd(cube.filter(lambda xs: xs > 0.8))
    return low.or_(high).count_valid()


def _product(ctx):
    left, right = _matrices(ctx)
    return left.multiply(right).to_numpy()


def _prepared_product(ctx):
    left, right = prepare_local(*_matrices(ctx))
    return left.multiply(right).to_numpy()


def _role_swapped_product(ctx):
    left, right = _matrices(ctx)
    right_t, left_t = prepare_local(right.transpose(), left.transpose())
    return right_t.multiply(left_t).to_numpy()


def _pagerank(ctx):
    rng = np.random.default_rng(11)
    edges = rng.integers(0, 40, size=(200, 2))
    graph = BitmaskGraph.from_edges(ctx, edges, 40, block_size=16)
    return (pagerank(graph, max_iterations=5).ranks, graph.num_edges(),
            graph.memory_bytes())


def _logistic(ctx):
    samples = _samples(ctx)
    model = LogisticRegression(max_iterations=6, chunks_per_step=2).fit(
        samples)
    return (model.weights.data, samples.evaluate_accuracy(
        model.weights.data), samples.nnz(), samples.memory_bytes())


def _generated_samples(ctx):
    samples = DistributedSamples.from_generator(ctx, 3, _generated_chunk, 5)
    return (samples.total_rows, samples.chunks_per_partition,
            samples.sampled_gradient(np.ones(5), 0, opt1=False))


OPERATORS = {
    "aggregate_by": lambda ctx, _tmp: _cube(ctx).aggregate_by(
        (1,), "avg").collect_dense(),
    "window_aggregate": lambda ctx, _tmp: window_aggregate(
        _cube(ctx), (3, 2), "max").collect_dense(),
    "combine_filter_get": lambda ctx, _tmp: (
        (_cube(ctx) * 2 + _cube(ctx)).filter(lambda xs: xs > 0.9)
        .subarray((0, 6), (8, 12)).get((1, 7))),
    "memory_bytes": lambda ctx, _tmp: _cube(ctx).memory_bytes(),
    "accumulate_async": lambda ctx, _tmp: accumulate_axis(
        _cube(ctx), 0, mode="async").collect_dense(),
    "accumulate_sync": lambda ctx, _tmp: accumulate_axis(
        _cube(ctx), 1, "max", mode="sync").collect_dense(),
    "merge_cells": lambda ctx, _tmp: merge_cells(
        _cube(ctx), [((0, 6), 5.0), ((9, 14), 1.0)],
        how="sum").collect_dense(),
    "delete": lambda ctx, _tmp: delete_where(delete_region(
        _cube(ctx), (0, 6), (3, 9)), lambda xs: xs > 0.9).collect_dense(),
    "stencil": lambda ctx, _tmp: stencil(
        _cube(ctx), mean_stencil(1), depth=1).collect_dense(),
    "stats": lambda ctx, _tmp: (
        describe(_cube(ctx)), histogram(_cube(ctx), bins=4),
        approx_quantiles(_cube(ctx), [0.5], sample_fraction=0.5)),
    "masks": lambda ctx, _tmp: _masks(ctx),
    "rechunk": lambda ctx, _tmp: rechunk(_cube(ctx), (5, 5)).collect_dense(),
    "store": _store_round_trip,
    "matmul": lambda ctx, _tmp: _product(ctx),
    "matmul_prepared": lambda ctx, _tmp: _prepared_product(ctx),
    "matmul_role_swapped": lambda ctx, _tmp: _role_swapped_product(ctx),
    "gram": lambda ctx, _tmp: _matrices(ctx)[0].gram().to_numpy(),
    "matvec": lambda ctx, _tmp: (
        _matrices(ctx)[0].dot_vector(SpangleVector(np.arange(9.0))).data,
        _matrices(ctx)[0].vector_dot(
            SpangleVector(np.arange(12.0), "row")).data),
    "scale_add": lambda ctx, _tmp: (
        _matrices(ctx)[0].scale(2.5).add(_matrices(ctx)[0]).to_numpy()),
    "pagerank": lambda ctx, _tmp: _pagerank(ctx),
    "logistic": lambda ctx, _tmp: _logistic(ctx),
    "generated_samples": lambda ctx, _tmp: _generated_samples(ctx),
}


class TestOperatorTasksShip:
    """Every job of an array, matrix or ML operator pickles its lineage
    on a serial context and still gives the same bytes."""

    @staticmethod
    def _pickle_every_job(ctx, monkeypatch):
        run_job, run_partition = ctx.run_job, ctx.run_partition

        def pickled_job(rdd, partition_func):
            task_loads(task_dumps(ResultTask(rdd, 0, partition_func)))
            return run_job(rdd, partition_func)

        def pickled_partition(rdd, index):
            task_loads(task_dumps(ResultTask(rdd, index, list)))
            return run_partition(rdd, index)

        monkeypatch.setattr(ctx, "run_job", pickled_job)
        monkeypatch.setattr(ctx, "run_partition", pickled_partition)

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_operator_jobs_pickle(self, name, monkeypatch, tmp_path):
        with ClusterContext(num_executors=2) as ctx:
            expected = OPERATORS[name](ctx, tmp_path / "plain")
        with ClusterContext(num_executors=2) as ctx:
            self._pickle_every_job(ctx, monkeypatch)
            got = OPERATORS[name](ctx, tmp_path / "pickled")
        assert pickle.dumps(got) == pickle.dumps(expected)
