"""Unit tests for the core RDD API: transformations and actions."""

import pytest

from repro.engine import CacheManager, ClusterContext
from repro.engine.metrics import MetricsRegistry
from repro.errors import EngineError, TaskFailure


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


class TestCreation:
    def test_parallelize_roundtrip(self, ctx):
        data = list(range(37))
        assert ctx.parallelize(data, 5).collect() == data

    def test_parallelize_preserves_order_across_partitions(self, ctx):
        data = [9, 1, 8, 2, 7, 3]
        assert ctx.parallelize(data, 3).collect() == data

    def test_parallelize_clamps_partitions_to_data(self, ctx):
        rdd = ctx.parallelize([1, 2], 16)
        assert rdd.num_partitions == 2
        assert rdd.collect() == [1, 2]

    def test_parallelize_empty(self, ctx):
        rdd = ctx.parallelize([], 4)
        assert rdd.collect() == []
        assert rdd.count() == 0

    def test_generate_runs_per_partition(self, ctx):
        rdd = ctx.generate(3, lambda i: range(i * 10, i * 10 + 2))
        assert rdd.collect() == [0, 1, 10, 11, 20, 21]

    @pytest.mark.parametrize("build,value", [
        (lambda: ClusterContext(default_parallelism=-2), -2),
        (lambda: ClusterContext(cache_budget_bytes=-5), -5),
        (lambda: CacheManager(MetricsRegistry(), budget_bytes=-5), -5),
        (lambda: ClusterContext().parallelize(range(4), -3), -3),
        (lambda: ClusterContext().generate(-3, range), -3),
    ], ids=["default_parallelism", "context_budget", "cache_budget",
            "parallelize", "generate"])
    def test_negative_size_fails_at_construction(self, build, value):
        with pytest.raises(EngineError, match=f"got {value}$"):
            build()


class TestTransformations:
    def test_map(self, ctx):
        assert ctx.parallelize([1, 2, 3], 2).map(lambda x: x * x).collect() \
            == [1, 4, 9]

    def test_filter(self, ctx):
        rdd = ctx.parallelize(range(10), 3).filter(lambda x: x % 2 == 0)
        assert rdd.collect() == [0, 2, 4, 6, 8]

    def test_flat_map(self, ctx):
        rdd = ctx.parallelize([1, 2], 2).flat_map(lambda x: [x] * x)
        assert rdd.collect() == [1, 2, 2]

    def test_map_partitions_with_index(self, ctx):
        rdd = ctx.parallelize(range(8), 4).map_partitions_with_index(
            lambda i, part: [(i, sum(part))]
        )
        assert rdd.collect() == [(0, 1), (1, 5), (2, 9), (3, 13)]

    def test_zip_partitions(self, ctx):
        a = ctx.parallelize([1, 2, 3, 4], 2)
        b = ctx.parallelize([10, 20, 30, 40], 2)
        z = a.zip_partitions(b, lambda xs, ys: [sum(xs) + sum(ys)])
        assert z.collect() == [33, 77]

    def test_zip_partitions_rejects_mismatched_counts(self, ctx):
        a = ctx.parallelize(range(4), 2)
        b = ctx.parallelize(range(4), 4)
        with pytest.raises(EngineError):
            a.zip_partitions(b, lambda xs, ys: [])

    def test_laziness_no_work_before_action(self, ctx):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize([1, 2, 3], 1).map(spy)
        assert calls == []
        rdd.collect()
        assert calls == [1, 2, 3]


class TestActions:
    def test_count(self, ctx):
        assert ctx.parallelize(range(101), 7).count() == 101

    def test_fold(self, ctx):
        assert ctx.parallelize(range(5), 2).fold(0, lambda a, b: a + b) == 10

    def test_task_failure_carries_partition(self, ctx):
        def boom(x):
            raise ValueError("bad record")

        with pytest.raises(TaskFailure) as excinfo:
            ctx.parallelize([1], 1).map(boom).collect()
        assert excinfo.value.partition_index == 0
        assert isinstance(excinfo.value.cause, ValueError)


class TestThreadedExecution:
    def test_threaded_matches_serial(self):
        serial = ClusterContext(num_executors=4)
        threaded = ClusterContext(num_executors=4, use_threads=True)
        data = list(range(500))
        expected = serial.parallelize(data, 8).map(lambda x: x * 3).sum()
        actual = threaded.parallelize(data, 8).map(lambda x: x * 3).sum()
        assert actual == expected
