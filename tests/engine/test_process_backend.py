"""The process execution backend: workers, shm exchange, fault paths.

Covers what the scheduler contract tests (which run whole scenarios
under ``backend="process"``) do not: a worker killed mid-stage, the
shared-memory block-exchange counters, cached-chunk handoff, span
adoption, resource cleanup — no leaked ``/dev/shm`` segments or
spill files after a run, even one that killed a worker — task payloads
sliced to the partitions a task reads, and by-value closures that
reach themselves.
"""

import operator
import os
import pickle
import signal

import numpy as np
import pytest

from repro.engine import (
    ClusterContext,
    HashPartitioner,
    MetricsRegistry,
    StorageLevel,
    Tracer,
)
from repro.engine.closure import task_dumps, task_loads
from repro.engine.explain import memory_report
from repro.engine.rdd import LineageStub
from repro.engine.shm import SHM_BLOCK_MIN_BYTES, leaked_segments
from repro.engine.worker import (
    ResultTask,
    TaskBlockCache,
    WorkerContext,
    bind_lineage,
)
from repro.errors import EngineError
from tests.engine.test_scheduler import LOGICAL_FIELDS

# a module-level recursive lambda reaches itself through its globals
fact = lambda n: 1 if n <= 1 else n * fact(n - 1)  # noqa: E731


class _KillOnFirstAttempt:
    """A UDF that SIGKILLs its worker process once, then behaves.

    The sentinel file makes the crash one-shot: the first task to run
    the closure creates it and dies; retries (and every other task) see
    the file and pass records through unchanged.
    """

    def __init__(self, sentinel_path):
        self.sentinel_path = sentinel_path

    def __call__(self, record):
        if not os.path.exists(self.sentinel_path):
            with open(self.sentinel_path, "w") as fh:
                fh.write("crashed")
            os.kill(os.getpid(), signal.SIGKILL)
        return record


class TestWorkerDeath:
    def test_killed_worker_respawns_and_job_completes(self, tmp_path):
        sentinel = str(tmp_path / "crash-once")
        ctx = ClusterContext(num_executors=2, backend="process",
                             task_retries=3)
        prefix = ctx.shm_registry.prefix
        spill_dir = ctx.cache.spill_directory()
        pairs = ctx.parallelize([(i % 5, i) for i in range(60)], 4)
        killer = _KillOnFirstAttempt(sentinel)
        got = sorted(pairs.map(killer)
                     .reduce_by_key(lambda a, b: a + b).collect())

        with ClusterContext(num_executors=2) as serial:
            expected = sorted(
                serial.parallelize([(i % 5, i) for i in range(60)], 4)
                .reduce_by_key(lambda a, b: a + b).collect())
        assert got == expected
        assert os.path.exists(sentinel)

        snap = ctx.metrics.snapshot()
        assert snap.worker_respawns >= 1
        assert snap.task_retries >= 1

        ctx.shutdown()
        # the registry sweep reclaims even segments the dead worker
        # created but never handed back
        assert leaked_segments(prefix) == []
        assert os.listdir(spill_dir) == []

    def test_missed_heartbeat_event_precedes_respawn(self, tmp_path):
        """A SIGKILLed worker must yield a missed-heartbeat health
        event strictly before its respawn: the event is emitted in the
        crash handler ahead of ``add(worker_respawns=1)``, and the
        respawn event follows it in the monitor's log."""
        sentinel = str(tmp_path / "crash-once")
        ctx = ClusterContext(num_executors=2, backend="process",
                             task_retries=3)
        pids_before = set(ctx.worker_heartbeats.rows())
        assert len(pids_before) == 2  # registered at fork time
        killer = _KillOnFirstAttempt(sentinel)
        got = sorted(ctx.parallelize(range(40), 4).map(killer).collect())
        assert got == list(range(40))

        rules = [event.rule for event in ctx.health_monitor.events()]
        assert "worker_heartbeat_missed" in rules
        assert "worker_respawn" in rules
        assert rules.index("worker_heartbeat_missed") \
            < rules.index("worker_respawn")
        missed = [event for event in ctx.health_monitor.events()
                  if event.rule == "worker_heartbeat_missed"]
        # every blamed corpse is identified by pid and was a registered
        # worker (the broken pool's teardown may take the sibling too)
        assert missed and all(event.attrs.get("pid") in pids_before
                              for event in missed)
        assert ctx.metrics.snapshot().worker_respawns >= 1
        # the whole old generation was forgotten (the survivors died
        # with the torn-down executor — they must not read as crashes),
        # so the ledger holds only live replacements and health recovers
        rows = ctx.worker_heartbeats.rows()
        assert not pids_before & set(rows)
        assert rows and all(row["alive"] for row in rows.values())
        # health() re-evaluates the rules on demand (the context is
        # untraced), so the crash condition clears once the pool has
        # recovered
        assert ctx.health().status == "ok"
        ctx.shutdown()

    def test_task_replies_beat_the_heartbeat_ledger(self):
        with ClusterContext(num_executors=2, backend="process") as ctx:
            ctx.parallelize(range(100), 4).map(lambda x: x + 1).collect()
            rows = ctx.worker_heartbeats.rows()
            assert sum(row["tasks"] for row in rows.values()) >= 4
            beaten = [row for row in rows.values() if row["tasks"]]
            assert beaten and all(row["last_task_s"] is not None
                                  for row in beaten)

    def test_crash_with_no_retries_surfaces(self, tmp_path):
        from repro.errors import TaskFailure

        sentinel = str(tmp_path / "crash-once")
        ctx = ClusterContext(num_executors=2, backend="process",
                             task_retries=0)
        prefix = ctx.shm_registry.prefix
        killer = _KillOnFirstAttempt(sentinel)
        with pytest.raises(TaskFailure):
            ctx.parallelize(range(40), 4).map(killer).collect()
        ctx.shutdown()
        assert leaked_segments(prefix) == []


class TestSharedMemoryExchange:
    def test_shuffle_blocks_travel_via_shm(self):
        ctx = ClusterContext(num_executors=2, backend="process")
        prefix = ctx.shm_registry.prefix
        pairs = ctx.parallelize([(i % 8, float(i)) for i in range(4000)],
                                4)
        got = sorted(pairs.reduce_by_key(lambda a, b: a + b).collect())
        snap = ctx.metrics.snapshot()
        assert snap.shm_segments_created >= 1
        assert snap.shm_bytes_mapped > 0
        expected = sorted(
            (k, sum(float(i) for i in range(4000) if i % 8 == k))
            for k in range(8))
        assert got == expected
        ctx.shutdown()
        assert leaked_segments(prefix) == []

    def test_cached_blocks_cross_as_shm_views(self):
        ctx = ClusterContext(num_executors=2, backend="process")
        # each partition is ~2000 floats -> far above the shm floor
        big = ctx.parallelize([float(i) for i in range(8000)], 4) \
                 .map(lambda x: x * 2).cache()
        first = big.collect()
        created_before = ctx.metrics.snapshot().shm_segments_created
        # second job reads the cache; partitions above the floor are
        # exported once and mapped zero-copy by the workers
        second = big.map(lambda x: x + 1).collect()
        snap = ctx.metrics.snapshot()
        assert snap.shm_segments_created > created_before
        assert ctx.shm_registry.segment_count() >= 1
        assert ctx.shm_registry.resident_bytes() \
            >= SHM_BLOCK_MIN_BYTES
        assert second == [x + 1 for x in first]
        prefix = ctx.shm_registry.prefix
        ctx.shutdown()
        assert leaked_segments(prefix) == []
        assert ctx.shm_registry.segment_count() == 0

    def test_memory_report_shows_backend_counters(self):
        with ClusterContext(num_executors=2, backend="process") as ctx:
            ctx.parallelize([(i % 4, i) for i in range(2000)], 4) \
               .reduce_by_key(lambda a, b: a + b).collect()
            report = memory_report(ctx)
            assert "backend: process" in report
            assert "shm_segments_created" in report
            assert "shm_bytes_mapped" in report
            assert "worker_respawns" in report

    def test_thread_backend_creates_no_segments(self):
        with ClusterContext(num_executors=2, use_threads=True) as ctx:
            ctx.parallelize([(i % 4, i) for i in range(2000)], 4) \
               .reduce_by_key(lambda a, b: a + b).collect()
            snap = ctx.metrics.snapshot()
            assert snap.shm_segments_created == 0
            assert snap.shm_bytes_mapped == 0


class TestSpillInterplay:
    def test_spilled_blocks_reach_workers_and_clean_up(self):
        from repro.engine import StorageLevel

        ctx = ClusterContext(num_executors=2, backend="process",
                             cache_budget_bytes=16384)
        spill_dir = ctx.cache.spill_directory()
        prefix = ctx.shm_registry.prefix
        big = ctx.parallelize([float(i) for i in range(6000)], 4) \
                 .persist(StorageLevel.MEMORY_AND_DISK)
        first = big.collect()
        assert ctx.cache.spilled_count() >= 1
        # workers read the spilled blocks through shipped file handles
        second = big.map(lambda x: x - 1).collect()
        assert second == [x - 1 for x in first]
        assert len(os.listdir(spill_dir)) == ctx.cache.spilled_count()
        ctx.shutdown()
        assert leaked_segments(prefix) == []


class TestTraceAdoption:
    def test_worker_spans_flow_back_to_driver(self):
        from repro.engine.tracing import logical_tree

        def job(ctx):
            return ctx.parallelize([(i % 3, i) for i in range(30)], 3) \
                      .reduce_by_key(lambda a, b: a + b).collect()

        with ClusterContext(num_executors=2, trace=True) as serial_ctx:
            serial_result = job(serial_ctx)
            serial_tree = logical_tree(serial_ctx.tracer.spans())
        with ClusterContext(num_executors=2, trace=True,
                            backend="process") as process_ctx:
            process_result = job(process_ctx)
            process_tree = logical_tree(process_ctx.tracer.spans())
        assert pickle.dumps(serial_result) == pickle.dumps(process_result)
        # same logical span tree: worker-side spans (shuffle writes,
        # plan passes) re-parent under the driver's task spans
        assert serial_tree == process_tree


def _arrays_job(ctx):
    records = [(i, np.arange(4.0) + i) for i in range(8)]
    return ctx.parallelize(records, 4).map(lambda kv: (kv[0], kv[1] * 2))


class TestReplyDtypes:
    """Arrays unpickled from a worker reply carry numpy's canonical
    dtype objects; pickle memoizes dtypes by identity, so otherwise a
    whole collected result pickles differently from the serial one."""

    def test_collected_result_pickles_as_serial(self):
        with ClusterContext(num_executors=2) as serial_ctx:
            serial = _arrays_job(serial_ctx).collect()
        with ClusterContext(num_executors=2, backend="process") as ctx:
            process = _arrays_job(ctx).collect()
        assert pickle.dumps(process) == pickle.dumps(serial)

    def test_cache_contributions_carry_canonical_dtypes(self):
        with ClusterContext(num_executors=2, backend="process") as ctx:
            rdd = _arrays_job(ctx).cache()
            rdd.count()
            found, records = ctx.cache.get(rdd.rdd_id, 0)
            assert found and records
            for _key, arr in records:
                assert arr.dtype is np.dtype(arr.dtype.str)


class TestBackendValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(EngineError, match="backend"):
            ClusterContext(num_executors=2, backend="ray")

    def test_process_backend_reports_parallel(self):
        with ClusterContext(num_executors=2, backend="process") as ctx:
            assert ctx.parallel
        with ClusterContext(num_executors=2) as ctx:
            assert not ctx.parallel


# ----------------------------------------------------------------------
# sliced task payloads
# ----------------------------------------------------------------------

def _record_payloads(ctx) -> list:
    """Collect every payload the context's process runner builds."""
    payloads = []
    build = ctx.process_runner._build_payload

    def recording(task):
        payload = build(task)
        payloads.append(payload)
        return payload

    ctx.process_runner._build_payload = recording
    return payloads


def _payload_zip_partitions(ctx):
    right = ctx.parallelize(range(100, 140), 4).cache()
    right.count()
    left = ctx.parallelize(range(40), 4)
    return left.zip_partitions(
        right, lambda a, b: [x * y for x, y in zip(a, b)]).collect()


def _payload_cogroup_narrow_slot(ctx):
    part = HashPartitioner(4)
    left = ctx.parallelize([(i % 9, i) for i in range(90)], 3) \
              .partition_by(part)
    right = ctx.parallelize([(i % 9, -i) for i in range(45)], 5)
    return sorted(left.cogroup(right, partitioner=part).collect())


def _payload_spilled_blocks(ctx):
    big = ctx.parallelize([float(i) for i in range(6000)], 4) \
             .persist(StorageLevel.MEMORY_AND_DISK)
    first = big.collect()
    assert ctx.cache.spilled_count() >= 1
    return first + big.map(lambda x: x - 1).collect()


def _payload_lazy_fetch_miss(ctx):
    # lookup computes one partition outside a job: the shuffle's map
    # stage materializes on the fetch_buckets miss
    summed = ctx.parallelize([(i % 10, i) for i in range(100)], 4) \
                .reduce_by_key(operator.add)
    return summed.lookup(3)


def _payload_first_cache_in_worker(ctx):
    cached = ctx.parallelize(range(4000), 4).map(lambda x: x * 0.5).cache()
    first = cached.map(lambda x: x + 1).collect()
    return first + cached.collect()


PAYLOAD_SCENARIOS = {
    "zip_partitions": (_payload_zip_partitions, {}),
    "cogroup_narrow_slot": (_payload_cogroup_narrow_slot, {}),
    "spilled_blocks": (_payload_spilled_blocks,
                       {"cache_budget_bytes": 16384}),
    "lazy_fetch_miss": (_payload_lazy_fetch_miss, {}),
    "first_cache_in_worker": (_payload_first_cache_in_worker, {}),
}

#: the scheduler's logical counters plus the block-cache reads, which a
#: sliced handle map must serve exactly as the driver cache does
PAYLOAD_FIELDS = LOGICAL_FIELDS + ("cache_hits", "cache_misses",
                                   "cache_reloads")


class TestSlicedPayload:
    def test_payload_carries_one_partition_not_the_dataset(self):
        data = [float(i) for i in range(16000)]
        full = len(task_dumps(data))
        with ClusterContext(num_executors=2, backend="process") as ctx:
            cached = ctx.parallelize(data, 8).cache()
            cached.count()
            payloads = _record_payloads(ctx)
            before = ctx.metrics.snapshot()
            got = cached.map(lambda x: x * 2).collect()
            delta = ctx.metrics.snapshot() - before
        assert got == [x * 2 for x in data]
        assert len(payloads) == 8
        assert all(len(payload) < full / 4 for payload in payloads)
        assert delta.task_payload_bytes == sum(map(len, payloads))

    def test_payload_ships_only_its_reducers_buckets(self):
        # string keys do not pack, so the buckets stay tuple lists that
        # ride inline with the result tasks
        records = [(f"k{i % 24}", i) for i in range(2400)]
        with ClusterContext(num_executors=2, backend="process") as ctx:
            grouped = ctx.parallelize(records, 4) \
                         .group_by_key(HashPartitioner(4))
            payloads = _record_payloads(ctx)
            got = grouped.collect()
            full = len(task_dumps(grouped._buckets[0]))
        assert sorted(v for _k, vs in got for v in vs) == list(range(2400))
        tasks = [task_loads(payload)["task"] for payload in payloads]
        results = [(task, payload) for task, payload in zip(tasks, payloads)
                   if isinstance(task, ResultTask)]
        assert len(results) == 4
        for task, payload in results:
            assert list(task.rdd._buckets[0]) == [task.index]
            assert len(payload) < full / 2

    def test_payload_stub_without_its_handle_raises(self):
        with ClusterContext(num_executors=2, backend="process") as ctx:
            cached = ctx.parallelize(range(40), 4).cache()
            cached.count()
            task = ResultTask(cached.map(lambda x: x + 1), 2, list)
            payload = ctx.process_runner._build_payload(task)
        assert set(task_loads(payload)["blocks"]) == {(cached.rdd_id, 2)}

        def run(handles):
            clone = task_loads(payload)["task"]
            assert isinstance(clone.rdd.dependencies[0], LineageStub)
            metrics = MetricsRegistry()
            bind_lineage(clone.roots(), WorkerContext(
                metrics, Tracer(enabled=False),
                TaskBlockCache(metrics, handles)))
            return clone.run()

        assert run(task_loads(payload)["blocks"]) == list(range(21, 31))
        with pytest.raises(EngineError,
                           match=rf"\({cached.rdd_id}, 2\)"):
            run({})

    def test_payload_walks_all_of_an_uncommitted_wide_slot(self):
        def summed(ctx):
            return ctx.parallelize([(i % 10, i) for i in range(100)], 4) \
                      .reduce_by_key(operator.add)

        with ClusterContext(num_executors=2) as serial:
            expected = list(summed(serial).iterator(1))
        with ClusterContext(num_executors=2, backend="process") as ctx:
            # the task reaches the worker before any job ran the map
            # stage: the worker materializes it through fetch_buckets
            got = ctx.process_runner.run_result(summed(ctx), 1, list)
        assert pickle.dumps(got) == pickle.dumps(expected)

    @pytest.mark.parametrize("name", sorted(PAYLOAD_SCENARIOS))
    def test_payload_slicing_keeps_backends_identical(self, name):
        scenario, kwargs = PAYLOAD_SCENARIOS[name]
        results, deltas = {}, {}
        for mode, extra in (("serial", {}), ("thread", {"use_threads": True}),
                            ("process", {"backend": "process"})):
            with ClusterContext(num_executors=2, **kwargs, **extra) as ctx:
                before = ctx.metrics.snapshot()
                results[mode] = pickle.dumps(scenario(ctx))
                deltas[mode] = ctx.metrics.snapshot() - before
        assert results["thread"] == results["serial"]
        assert results["process"] == results["serial"]
        for field in PAYLOAD_FIELDS:
            values = {mode: getattr(delta, field)
                      for mode, delta in deltas.items()}
            assert len(set(values.values())) == 1, (field, values)


class TestClosureRecursion:
    def test_closure_self_recursive_functions_ship(self):
        def rec(n):
            return 0 if n <= 0 else n + rec(n - 1)

        for func in (fact, rec):
            assert task_loads(task_dumps(func))(6) == func(6)
        with ClusterContext(num_executors=2, backend="process") as ctx:
            numbers = ctx.parallelize(range(8), 2)
            assert numbers.map(fact).collect() == [fact(n) for n in range(8)]
            assert numbers.map(rec).collect() == [rec(n) for n in range(8)]
