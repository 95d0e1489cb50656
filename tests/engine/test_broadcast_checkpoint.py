"""Tests for broadcast variables."""

import numpy as np
import pytest

from repro.engine import ClusterContext
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
