"""Tests for pair-RDD operations: shuffles, joins, partitioning."""

import pytest

from repro.engine import ClusterContext, HashPartitioner
from repro.engine.explain import count_stages
from repro.engine.partitioner import BlockPartitioner


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


class TestAggregations:
    def test_reduce_by_key(self, ctx):
        rdd = ctx.parallelize([(i % 3, i) for i in range(12)], 4)
        assert sorted(rdd.reduce_by_key(lambda a, b: a + b).collect()) == [
            (0, 18), (1, 22), (2, 26)
        ]

    def test_group_by_key(self, ctx):
        rdd = ctx.parallelize([("a", 1), ("b", 2), ("a", 3)], 3)
        grouped = dict(rdd.group_by_key().collect())
        assert sorted(grouped["a"]) == [1, 3]
        assert grouped["b"] == [2]

    def test_combine_by_key_average(self, ctx):
        rdd = ctx.parallelize([("x", 1.0), ("x", 3.0), ("y", 5.0)], 2)
        sums = rdd.combine_by_key(
            lambda v: (v, 1),
            lambda acc, v: (acc[0] + v, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        ).map_values(lambda acc: acc[0] / acc[1])
        assert sorted(sums.collect()) == [("x", 2.0), ("y", 5.0)]

    def test_map_side_combine_reduces_shuffle_records(self, ctx):
        data = [(0, 1)] * 100
        before = ctx.metrics.snapshot()
        ctx.parallelize(data, 4).reduce_by_key(lambda a, b: a + b).collect()
        with_combine = (ctx.metrics.snapshot() - before).shuffle_records

        before = ctx.metrics.snapshot()
        ctx.parallelize(data, 4).group_by_key().collect()
        without_combine = (ctx.metrics.snapshot() - before).shuffle_records
        assert with_combine < without_combine

    def test_count_by_key(self, ctx):
        rdd = ctx.parallelize([("a", 0), ("a", 1), ("b", 0)], 2)
        assert rdd.count_by_key() == {"a": 2, "b": 1}

    def test_map_values_preserves_partitioner(self, ctx):
        part = HashPartitioner(4)
        rdd = ctx.parallelize([(i, i) for i in range(8)], 4) \
                 .partition_by(part)
        assert rdd.map_values(lambda v: v + 1).partitioner == part


class TestJoins:
    def test_inner_join(self, ctx):
        left = ctx.parallelize([(1, "a"), (2, "b"), (2, "c")], 2)
        right = ctx.parallelize([(2, "x"), (3, "y")], 2)
        assert sorted(left.join(right).collect()) == [
            (2, ("b", "x")), (2, ("c", "x"))
        ]

    def test_left_outer_join(self, ctx):
        left = ctx.parallelize([(1, "a"), (2, "b")], 2)
        right = ctx.parallelize([(2, "x")], 1)
        assert sorted(left.left_outer_join(right).collect()) == [
            (1, ("a", None)), (2, ("b", "x"))
        ]

    def test_full_outer_join(self, ctx):
        left = ctx.parallelize([(1, "a")], 1)
        right = ctx.parallelize([(2, "x")], 1)
        assert sorted(left.full_outer_join(right).collect()) == [
            (1, ("a", None)), (2, (None, "x"))
        ]

    def test_cogroup(self, ctx):
        left = ctx.parallelize([(1, "a"), (1, "b")], 2)
        right = ctx.parallelize([(1, "x"), (2, "y")], 2)
        groups = dict(left.cogroup(right).collect())
        assert sorted(groups[1][0]) == ["a", "b"]
        assert groups[1][1] == ["x"]
        assert groups[2] == [[], ["y"]]

    def test_join_of_copartitioned_rdds_is_narrow(self, ctx):
        part = HashPartitioner(4)
        left = ctx.parallelize([(i, i) for i in range(20)], 4) \
                  .partition_by(part)
        right = ctx.parallelize([(i, -i) for i in range(20)], 4) \
                   .partition_by(part)
        left.collect()
        right.collect()

        joined = left.join(right, partitioner=part)
        # the cogroup itself adds zero shuffle boundaries beyond the two
        # partition_by shuffles already in the lineage
        assert count_stages(joined) - 1 == 2
        before = ctx.metrics.snapshot()
        result = sorted(joined.collect())
        delta = ctx.metrics.snapshot() - before
        assert result == [(i, (i, -i)) for i in range(20)]
        # both sides were placed by the collects above: the join moves
        # nothing
        assert delta.shuffles_performed == 0
        assert delta.shuffle_bytes == 0


class TestPartitioning:
    def test_partition_by_places_keys(self, ctx):
        part = HashPartitioner(3)
        rdd = ctx.parallelize([(i, None) for i in range(30)], 5) \
                 .partition_by(part)
        for index, records in enumerate(ctx.run_job(rdd, list)):
            for key, _value in records:
                assert part.partition(key) == index

    def test_partition_by_same_partitioner_is_noop(self, ctx):
        part = HashPartitioner(3)
        rdd = ctx.parallelize([(i, None) for i in range(9)], 3) \
                 .partition_by(part)
        assert rdd.partition_by(part) is rdd

    def test_block_partitioner(self, ctx):
        part = BlockPartitioner(4, divisor=10)
        rdd = ctx.parallelize([(i, None) for i in range(40)], 4) \
                 .partition_by(part)
        for index, records in enumerate(ctx.run_job(rdd, list)):
            for key, _value in records:
                assert (key // 10) % 4 == index

    def test_lookup_with_partitioner_scans_one_partition(self, ctx):
        part = HashPartitioner(4)
        rdd = ctx.parallelize([(i, i * i) for i in range(16)], 4) \
                 .partition_by(part).cache()
        rdd.collect()
        before = ctx.metrics.snapshot()
        assert rdd.lookup(7) == [49]
        delta = ctx.metrics.snapshot() - before
        assert delta.tasks_launched == 1

    def test_lookup_without_partitioner(self, ctx):
        rdd = ctx.parallelize([(1, "a"), (2, "b"), (1, "c")], 3)
        assert sorted(rdd.lookup(1)) == ["a", "c"]


class TestShuffleAccounting:
    def test_shuffle_bytes_grow_with_data(self, ctx):
        small = ctx.parallelize([(i % 7, float(i)) for i in range(100)], 4)
        large = ctx.parallelize([(i % 7, float(i)) for i in range(2000)], 4)

        before = ctx.metrics.snapshot()
        small.group_by_key().collect()
        small_bytes = (ctx.metrics.snapshot() - before).shuffle_bytes

        before = ctx.metrics.snapshot()
        large.group_by_key().collect()
        large_bytes = (ctx.metrics.snapshot() - before).shuffle_bytes
        assert large_bytes > small_bytes * 5

    def test_narrow_shuffle_moves_no_bytes(self, ctx):
        part = HashPartitioner(4)
        rdd = ctx.parallelize([(i, i) for i in range(40)], 4) \
                 .partition_by(part).cache()
        rdd.collect()
        before = ctx.metrics.snapshot()
        rdd.reduce_by_key(lambda a, b: a + b, partitioner=part).collect()
        delta = ctx.metrics.snapshot() - before
        assert delta.shuffle_bytes == 0
        assert delta.shuffles_performed == 0
