"""Tests for task retry (Spark's spark.task.maxFailures behaviour)."""

import os

import pytest

from repro.engine import ClusterContext, HashPartitioner
from repro.errors import EngineError, TaskFailure


class Flaky:
    """Fails the first ``failures`` calls per record, then succeeds."""

    def __init__(self, failures: int):
        self.failures = failures
        self.attempts = {}

    def __call__(self, x):
        seen = self.attempts.get(x, 0)
        self.attempts[x] = seen + 1
        if seen < self.failures:
            raise IOError(f"transient failure for {x}")
        return x * 2


class TestTaskRetries:
    def test_transient_failure_recovers(self):
        ctx = ClusterContext(num_executors=2, task_retries=3)
        flaky = Flaky(failures=1)
        got = ctx.parallelize([1, 2, 3], 1).map(flaky).collect()
        assert got == [2, 4, 6]
        # each record trips the task once (pipelined lazily, a retry
        # re-runs the whole partition and reaches one record further)
        assert ctx.metrics.task_retries == 3

    def test_exhausted_retries_surface_last_error(self):
        ctx = ClusterContext(num_executors=2, task_retries=2)
        flaky = Flaky(failures=99)
        with pytest.raises(TaskFailure) as excinfo:
            ctx.parallelize([7], 1).map(flaky).collect()
        assert isinstance(excinfo.value.cause, IOError)
        # 1 original attempt + 2 retries
        assert flaky.attempts[7] == 3
        assert ctx.metrics.task_retries == 2

    def test_zero_retries_fails_fast(self):
        ctx = ClusterContext(num_executors=2, task_retries=0)
        flaky = Flaky(failures=1)
        with pytest.raises(TaskFailure):
            ctx.parallelize([1], 1).map(flaky).collect()
        assert flaky.attempts[1] == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(EngineError):
            ClusterContext(task_retries=-1)

    def test_no_retries_recorded_on_success(self):
        ctx = ClusterContext(num_executors=2, task_retries=3)
        ctx.parallelize(range(10), 2).map(lambda x: x).collect()
        assert ctx.metrics.task_retries == 0

    def test_retry_with_shuffle_downstream(self):
        ctx = ClusterContext(num_executors=2, task_retries=2)
        flaky = Flaky(failures=1)
        pairs = ctx.parallelize([(1, 2), (1, 3)], 1) \
                   .map(lambda kv: (kv[0], flaky(kv[1])))
        # the flaky map sits under a shuffle map stage: Flaky fails the
        # first access to each record value; the stage must still finish
        got = dict(pairs.reduce_by_key(lambda a, b: a + b).collect())
        assert got == {1: 10}


BACKENDS = {
    "serial": dict(use_threads=False),
    "thread": dict(use_threads=True),
    "process": dict(backend="process"),
}


class FailOnce:
    """Fails the first attempt at each partition, then passes its
    records through. The markers live on disk, so driver threads and
    worker processes share the failure state."""

    def __init__(self, directory):
        self.directory = str(directory)

    def __call__(self, index, part):
        marker = os.path.join(self.directory, f"partition-{index}")
        if not os.path.exists(marker):
            open(marker, "w").close()
            raise IOError(f"transient failure in partition {index}")
        return part


@pytest.mark.parametrize("mode", sorted(BACKENDS))
class TestDriverProbeRetries:
    """The driver's partition probe (``lookup``) retries exactly like a
    job task."""

    def test_lookup_retry(self, mode, tmp_path):
        part = HashPartitioner(2)
        data = [(k, k * 10) for k in range(8)]
        with ClusterContext(num_executors=2, task_retries=1,
                            **BACKENDS[mode]) as ctx:
            pairs = ctx.parallelize(data, partitioner=part) \
                       .map_partitions_with_index(
                           FailOnce(tmp_path), preserves_partitioning=True)
            key = next(k for k, _v in data if part.partition(k) == 1)
            before = ctx.metrics.task_retries
            assert pairs.lookup(key) == [key * 10]
            assert ctx.metrics.task_retries == before + 1
