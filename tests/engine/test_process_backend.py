"""The process execution backend: workers, shm exchange, fault paths.

Covers what the scheduler contract tests (which run whole scenarios
under ``backend="process"``) do not: a worker killed mid-stage, the
shared-memory block-exchange counters, cached-chunk handoff, span
adoption, and resource cleanup — no leaked ``/dev/shm`` segments or
spill files after a run, even one that killed a worker.
"""

import os
import pickle
import signal

import pytest

from repro.engine import ClusterContext
from repro.engine.explain import memory_report
from repro.engine.shm import SHM_BLOCK_MIN_BYTES, leaked_segments


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
        # health() re-evaluates the rules (telemetry is off here), so
        # the crash condition clears once the pool has recovered
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


class TestBackendValidation:
    def test_unknown_backend_rejected(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError, match="backend"):
            ClusterContext(num_executors=2, backend="ray")

    def test_process_backend_reports_parallel(self):
        with ClusterContext(num_executors=2, backend="process") as ctx:
            assert ctx.parallel
        with ClusterContext(num_executors=2) as ctx:
            assert not ctx.parallel
