"""Tests for broadcast variables and checkpointing."""

import numpy as np
import pytest

from repro.engine import ClusterContext
from repro.engine.lineage import lineage_depth
from repro.errors import EngineError


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


class TestBroadcast:
    def test_value_accessible_in_tasks(self, ctx):
        lookup = ctx.broadcast({"a": 1, "b": 2})
        rdd = ctx.parallelize(["a", "b", "a"], 2)
        assert rdd.map(lambda k: lookup.value[k]).collect() == [1, 2, 1]

    def test_network_cost_metered(self, ctx):
        payload = np.zeros(100_000)  # 800 KB
        before = ctx.metrics.snapshot()
        ctx.broadcast(payload)
        delta = ctx.metrics.snapshot() - before
        assert delta.broadcast_bytes == payload.nbytes * 4

    def test_broadcast_counts_toward_modeled_network(self, ctx):
        with ctx.measure() as measurement:
            ctx.broadcast(np.zeros(1_000_000))
        assert measurement.report.network_s > 0

    def test_destroy(self, ctx):
        b = ctx.broadcast([1, 2, 3])
        b.destroy()
        with pytest.raises(EngineError):
            _ = b.value

    def test_nbytes(self, ctx):
        b = ctx.broadcast(np.zeros(10))
        assert b.nbytes == 80


class TestCheckpoint:
    def test_checkpoint_truncates_lineage(self, ctx):
        rdd = ctx.parallelize(range(10), 2)
        for _ in range(5):
            rdd = rdd.map(lambda x: x + 1)
        assert lineage_depth(rdd) == 6
        rdd.checkpoint()
        assert lineage_depth(rdd) == 1
        assert rdd.is_checkpointed

    def test_checkpoint_preserves_data(self, ctx):
        rdd = ctx.parallelize(range(20), 4).map(lambda x: x * 2)
        expected = rdd.collect()
        rdd.checkpoint()
        assert rdd.collect() == expected

    def test_reads_come_from_checkpoint_not_parents(self, ctx):
        calls = []
        rdd = ctx.parallelize(range(8), 2).map(
            lambda x: calls.append(x) or x)
        rdd.checkpoint()
        call_count = len(calls)
        rdd.collect()
        rdd.collect()
        assert len(calls) == call_count  # parents never re-ran

    def test_checkpoint_write_metered_as_disk(self, ctx):
        rdd = ctx.parallelize([bytes(1000)] * 4, 2)
        before = ctx.metrics.snapshot()
        rdd.checkpoint()
        delta = ctx.metrics.snapshot() - before
        assert delta.disk_write_bytes >= 4000
        before = ctx.metrics.snapshot()
        rdd.collect()
        delta = ctx.metrics.snapshot() - before
        assert delta.disk_read_bytes >= 4000

    def test_checkpoint_idempotent(self, ctx):
        rdd = ctx.parallelize(range(4), 2)
        rdd.checkpoint()
        before = ctx.metrics.snapshot()
        rdd.checkpoint()
        delta = ctx.metrics.snapshot() - before
        assert delta.disk_write_bytes == 0

    def test_iterative_job_with_periodic_checkpoints(self, ctx):
        """The GraphX-style fix: checkpoint every k iterations."""
        ranks = ctx.parallelize([(v, 1.0) for v in range(10)], 2)
        for step in range(1, 10):
            ranks = ranks.map_values(lambda r: r * 0.9 + 0.1)
            if step % 3 == 0:
                ranks.checkpoint()
        assert lineage_depth(ranks) <= 4
        values = dict(ranks.collect())
        expected = 1.0
        for _ in range(9):
            expected = expected * 0.9 + 0.1
        assert values[0] == pytest.approx(expected)
