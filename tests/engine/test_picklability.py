"""Task-closure picklability: every public transformation must ship.

The process backend serializes a task's RDD lineage — wrapper
callables, user lambdas, captured closure cells — with
:mod:`repro.engine.closure` and rebuilds it in a worker. These tests
round-trip each public transformation's task through
``task_dumps``/``task_loads`` in-process (no fork needed) and assert
the rebuilt task produces byte-identical partition output.
"""

import pickle

import pytest

from repro.engine import ClusterContext, HashPartitioner, MetricsRegistry, Tracer
from repro.engine.closure import task_dumps, task_loads
from repro.engine.worker import (
    ResultTask,
    TaskBlockCache,
    WorkerContext,
    bind_lineage,
)

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
            for node, which in ctx.scheduler.shuffle_stages(rdd):
                node.fetch_buckets(which)
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
