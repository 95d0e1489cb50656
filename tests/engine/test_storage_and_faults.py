"""Caching, eviction, lineage recomputation, and fault injection."""

import pickle

import numpy as np
import pytest

from repro import SpangleMatrix
from repro.engine import ClusterContext, StorageLevel
from repro.engine.explain import count_stages
from repro.engine.lineage import FaultInjector, collect_rdds


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


class TestCaching:
    def test_cache_avoids_recompute(self, ctx):
        calls = []
        rdd = ctx.parallelize(range(8), 4).map(
            lambda x: calls.append(x) or x
        ).cache()
        rdd.collect()
        rdd.collect()
        assert len(calls) == 8

    def test_uncached_recomputes(self, ctx):
        calls = []
        rdd = ctx.parallelize(range(4), 2).map(
            lambda x: calls.append(x) or x
        )
        rdd.collect()
        rdd.collect()
        assert len(calls) == 8

    def test_unpersist_frees_blocks(self, ctx):
        rdd = ctx.parallelize(range(8), 4).cache()
        rdd.collect()
        assert ctx.cache.block_count() == 4
        rdd.unpersist()
        assert ctx.cache.block_count() == 0

    def test_cache_hit_metrics(self, ctx):
        rdd = ctx.parallelize(range(8), 4).cache()
        rdd.collect()
        before = ctx.metrics.snapshot()
        rdd.collect()
        delta = ctx.metrics.snapshot() - before
        assert delta.cache_hits == 4
        assert delta.cache_misses == 0


class TestEviction:
    def test_budget_evicts_lru(self):
        ctx = ClusterContext(num_executors=2, cache_budget_bytes=2000)
        first = ctx.parallelize([bytes(500)] * 2, 2).cache()
        second = ctx.parallelize([bytes(500)] * 4, 2).cache()
        first.collect()
        second.collect()
        assert ctx.metrics.cache_evictions > 0

    def test_memory_and_disk_spills(self):
        ctx = ClusterContext(num_executors=2, cache_budget_bytes=1500)
        rdd = ctx.parallelize([bytes(600)] * 4, 4) \
                 .persist(StorageLevel.MEMORY_AND_DISK)
        rdd.collect()
        assert ctx.metrics.disk_write_bytes > 0
        # spilled blocks still serve reads (counted as disk reads)
        assert rdd.count() == 4
        assert ctx.metrics.disk_read_bytes > 0

    def test_memory_only_eviction_drops_data_but_recomputes(self):
        ctx = ClusterContext(num_executors=2, cache_budget_bytes=1200)
        rdd = ctx.parallelize([bytes(600)] * 4, 4) \
                 .persist(StorageLevel.MEMORY)
        assert rdd.count() == 4
        assert rdd.count() == 4
        assert ctx.metrics.disk_write_bytes == 0


class TestFaultTolerance:
    def test_lost_partition_recomputed(self, ctx):
        rdd = ctx.parallelize(range(16), 4).map(lambda x: x * 2).cache()
        expected = rdd.collect()
        assert ctx.fail_partition(rdd, 2)
        assert rdd.collect() == expected
        assert ctx.metrics.recomputations == 1

    def test_fail_unknown_partition_returns_false(self, ctx):
        rdd = ctx.parallelize(range(4), 2).cache()
        assert not ctx.fail_partition(rdd, 0)  # never computed yet

    def test_fault_injector_strike_preserves_results(self, ctx):
        base = ctx.parallelize([(i % 5, i) for i in range(50)], 4)
        summed = base.reduce_by_key(lambda a, b: a + b).cache()
        expected = sorted(summed.collect())
        injector = FaultInjector(ctx, seed=1)
        lost = injector.strike(summed, kill_fraction=1.0)
        assert lost > 0
        assert sorted(summed.collect()) == expected

    @staticmethod
    def _struck_rerun(ctx, rdd):
        """Collect ``rdd``, strike every block and shuffle output under
        it, collect again: ``(first, second, first_delta, second_delta,
        lost)``."""
        before = ctx.metrics.snapshot()
        first = pickle.dumps(rdd.collect())
        first_delta = ctx.metrics.snapshot() - before
        lost = FaultInjector(ctx, seed=0).strike(rdd, kill_fraction=1.0)
        before = ctx.metrics.snapshot()
        second = pickle.dumps(rdd.collect())
        return first, second, first_delta, \
            ctx.metrics.snapshot() - before, lost

    def test_strike_drops_join_map_output(self, ctx):
        left = ctx.parallelize([(i % 6, i) for i in range(60)], 4)
        right = ctx.parallelize([(i % 6, -i) for i in range(24)], 3)
        first, second, first_delta, delta, lost = \
            self._struck_rerun(ctx, left.join(right))
        assert second == first
        assert lost == 2  # both cogroup slots
        assert first_delta.shuffles_performed == 2
        assert delta.shuffles_performed == 2
        assert delta.shuffle_bytes == first_delta.shuffle_bytes

    def test_strike_drops_shuffled_matmul_map_output(self, ctx):
        rng = np.random.default_rng(4)
        a = rng.random((24, 16)) * (rng.random((24, 16)) < 0.4)
        b = rng.random((16, 20)) * (rng.random((16, 20)) < 0.4)
        product = SpangleMatrix.from_numpy(ctx, a, (8, 8)).multiply(
            SpangleMatrix.from_numpy(ctx, b, (8, 8)), local_join=False)
        first, second, first_delta, delta, lost = \
            self._struck_rerun(ctx, product.array.rdd)
        assert second == first
        assert lost >= 3  # both cogroup slots and the gather reduce
        assert first_delta.shuffles_performed >= 3
        assert delta.shuffles_performed == first_delta.shuffles_performed
        assert delta.shuffle_records == first_delta.shuffle_records

    def test_repeated_strikes(self, ctx):
        rdd = ctx.parallelize(range(100), 5).map(lambda x: x + 1).cache()
        expected = rdd.sum()
        injector = FaultInjector(ctx, seed=3)
        for _round in range(3):
            injector.strike(rdd, kill_fraction=0.7)
            assert rdd.sum() == expected


class TestLineageAnalysis:
    def test_count_shuffle_boundaries(self, ctx):
        pairs = ctx.parallelize([(1, 1)], 1)
        assert count_stages(pairs) - 1 == 0
        reduced = pairs.reduce_by_key(lambda a, b: a + b)
        assert count_stages(reduced) - 1 == 1

    def test_shared_shuffle_counts_once(self, ctx):
        """A diamond over one shuffle: both join sides read the same
        reduce, which is one boundary in the plan and one shuffle in
        the run."""
        pairs = ctx.parallelize([(i % 5, i) for i in range(40)], 4)
        red = pairs.reduce_by_key(lambda a, b: a + b)
        joined = red.map_values(lambda v: v + 1) \
                    .join(red.map_values(lambda v: -v))
        assert count_stages(joined) - 1 == 1
        before = ctx.metrics.snapshot()
        result = sorted(joined.collect())
        delta = ctx.metrics.snapshot() - before
        assert delta.shuffles_performed == 1
        sums = {k: sum(range(k, 40, 5)) for k in range(5)}
        assert result == [(k, (s + 1, -s)) for k, s in sorted(sums.items())]

    def test_collect_rdds_topological(self, ctx):
        a = ctx.parallelize([1], 1)
        b = a.map(lambda x: x)
        c = b.filter(bool)
        nodes = collect_rdds(c)
        assert [n.rdd_id for n in nodes] == [a.rdd_id, b.rdd_id, c.rdd_id]
