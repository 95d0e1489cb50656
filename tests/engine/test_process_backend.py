"""The process execution backend: workers, shm exchange, fault paths.

Covers what the scheduler contract tests (which run whole scenarios
under ``backend="process"``) do not: a worker killed mid-stage (and
replaced alone), callers sharing the workers' pipes, the shared-memory
block-exchange counters, tuple buckets crossing as shm refs, cached-chunk
handoff, span adoption, resource
cleanup — no leaked ``/dev/shm`` segments, spill files or worker
processes after a run, even one that killed a worker or shut down mid-job
— a clean exit after many jobs, task payloads sliced to the partitions
a task reads, and by-value closures that reach themselves.
"""

import errno
import gc
import multiprocessing
import operator
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ArrayRDD, SpangleMatrix
from repro.engine import (
    ClusterContext,
    HashPartitioner,
    MetricsRegistry,
    StorageLevel,
    Tracer,
)
from repro.engine.closure import task_dumps, task_loads
from repro.engine.explain import memory_report
from repro.engine.lineage import FaultInjector, collect_rdds
from repro.engine.partitioner import Partitioner
from repro.engine.rdd import LineageStub
from repro.engine.shm import (
    SHM_BLOCK_MIN_BYTES,
    ShmRef,
    leaked_segments,
    load_ref,
)
from repro.engine.top import health_events, render_dashboard
from repro.engine.worker import (
    ResultTask,
    TaskBlockCache,
    WorkerContext,
    WorkerCrashed,
    bind_lineage,
)
from repro.errors import EngineError
from tests.engine.test_scheduler import LOGICAL_FIELDS
from tests.engine.test_shm_lifecycle import _mapped_segments

# a module-level recursive lambda reaches itself through its globals
fact = lambda n: 1 if n <= 1 else n * fact(n - 1)  # noqa: E731


class _KillOnFirstAttempt:
    """A UDF that SIGKILLs its worker process once, then behaves.

    The sentinel file makes the crash one-shot: the first task to run
    the closure creates it (atomically, so two workers never both die),
    writes its pid and dies; retries (and every other task) see the file
    and pass records through unchanged.
    """

    def __init__(self, sentinel_path):
        self.sentinel_path = sentinel_path

    def __call__(self, record):
        try:
            fd = os.open(self.sentinel_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return record
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)


class _KillWorker:
    """A UDF that SIGKILLs the worker process running it, every time
    (never the driver whose pid it was given)."""

    def __init__(self, driver_pid):
        self.driver_pid = driver_pid

    def __call__(self, record):
        if os.getpid() != self.driver_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return record


class _HoldUntilReleased:
    """A UDF that marks its task started, then waits for a release file."""

    def __init__(self, started_path, release_path):
        self.started_path = started_path
        self.release_path = release_path

    def __call__(self, record):
        open(self.started_path, "a").close()
        deadline = time.monotonic() + 30
        while not os.path.exists(self.release_path):
            assert time.monotonic() < deadline, "never released"
            time.sleep(0.005)
        return record


def _task_pids(spans) -> set:
    """The worker pids named on the task spans of ``spans``."""
    return {span.attrs["worker"] for span in spans
            if span.kind == "task" and "worker" in span.attrs}


def _pool_children(before) -> set:
    """Live child processes this process did not have at ``before``."""
    return set(multiprocessing.active_children()) - before


class TestWorkerDeath:
    def test_killed_worker_respawns_and_job_completes(self, tmp_path,
                                                      capsys):
        sentinel = str(tmp_path / "crash-once")
        ctx = ClusterContext(num_executors=2, backend="process",
                             trace=True)
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
        # the crash is read back from the trace
        spans = ctx.tracer.spans()
        assert "worker_respawn" in [event["rule"]
                                    for event in health_events(spans)]
        print(render_dashboard(spans))
        assert "[health] WARN" in capsys.readouterr().out

        ctx.shutdown()
        # the registry sweep reclaims even segments the dead worker
        # created but never handed back
        assert leaked_segments(prefix) == []
        assert not os.path.exists(spill_dir)

    def test_task_spans_name_the_worker_that_ran_them(self):
        with ClusterContext(num_executors=2, backend="process",
                            trace=True) as ctx:
            ctx.parallelize(range(100), 4).map(lambda x: x + 1).collect()
            tasks = [span for span in ctx.tracer.spans()
                     if span.kind == "task" and span.name == "task"]
        pids = {span.attrs["worker"] for span in tasks}
        assert len(tasks) == 4
        assert 1 <= len(pids) <= 2 and os.getpid() not in pids

    def test_killed_worker_is_replaced_alone(self, tmp_path):
        sentinel = str(tmp_path / "crash-once")
        records = [(i % 5, i) for i in range(60)]
        with ClusterContext(num_executors=2) as serial:
            expected = sorted(serial.parallelize(records, 4)
                              .reduce_by_key(operator.add).collect())
        with ClusterContext(num_executors=2, backend="process",
                            trace=True) as ctx:
            pairs = ctx.parallelize(records, 4)
            pairs.map(lambda kv: kv).collect()
            first = _task_pids(ctx.tracer.spans())
            assert len(first) == 2
            got = sorted(pairs.map(_KillOnFirstAttempt(sentinel))
                         .reduce_by_key(operator.add).collect())
            with open(sentinel) as fh:
                killed = int(fh.read())
            mark = len(ctx.tracer.spans())
            again = sorted(pairs.reduce_by_key(operator.add).collect())
            second = _task_pids(ctx.tracer.spans()[mark:])
            respawns = ctx.metrics.snapshot().worker_respawns
        assert got == expected and again == expected
        assert respawns == 1
        assert killed in first
        # the survivor keeps serving under its old pid; the dead one's
        # replacement is a new process
        survivor = (first - {killed}).pop()
        assert survivor in second and killed not in second
        assert len(second) == 2

    def test_crash_on_every_attempt_surfaces(self):
        """A task whose worker dies on each of its 4 attempts fails the
        job with the crash as its cause, and leaks no segment."""
        from repro.errors import TaskFailure

        ctx = ClusterContext(num_executors=2, backend="process")
        prefix = ctx.shm_registry.prefix
        with pytest.raises(TaskFailure) as excinfo:
            ctx.parallelize(range(40), 4).map(
                _KillWorker(os.getpid())).collect()
        respawns = ctx.metrics.snapshot().worker_respawns
        ctx.shutdown()
        assert isinstance(excinfo.value.cause, WorkerCrashed)
        assert respawns >= 4
        assert leaked_segments(prefix) == []


class TestWorkerSlots:
    def test_more_callers_than_workers_get_their_own_replies(self):
        """Six threads share two workers' pipes: each caller waits for
        an idle worker, and every reply is the one for its payload."""
        with ClusterContext(num_executors=2) as serial:
            expected = [list(serial.parallelize(range(400), 8)
                             .map(lambda x: x * 3).iterator(i))
                        for i in range(8)]
        with ClusterContext(num_executors=2, backend="process") as ctx:
            rdd = ctx.parallelize(range(400), 8).map(lambda x: x * 3)

            def call(i):
                return ctx.process_runner.run(ResultTask(rdd, i % 8, list))

            with ThreadPoolExecutor(6) as callers:
                got = list(callers.map(call, range(48), timeout=120))
        assert got == [expected[i % 8] for i in range(48)]


class TestShutdownLeavesNoWorker:
    """After ``ctx.shutdown()`` no worker process is left alive: each
    one got the stop message and was joined."""

    def _audit(self, ctx, before):
        prefix = ctx.shm_registry.prefix
        ctx.shutdown()
        assert _pool_children(before) == set()
        assert leaked_segments(prefix) == []

    def test_clean_run(self):
        before = set(multiprocessing.active_children())
        ctx = ClusterContext(num_executors=2, backend="process")
        assert len(_pool_children(before)) == 2
        ctx.parallelize(range(40), 4).map(lambda x: x + 1).collect()
        self._audit(ctx, before)

    def test_run_with_a_killed_worker(self, tmp_path):
        before = set(multiprocessing.active_children())
        ctx = ClusterContext(num_executors=2, backend="process")
        killer = _KillOnFirstAttempt(str(tmp_path / "crash-once"))
        assert ctx.parallelize(range(40), 4).map(killer).collect() \
            == list(range(40))
        assert ctx.metrics.snapshot().worker_respawns == 1
        assert len(_pool_children(before)) == 2
        self._audit(ctx, before)

    def test_shutdown_while_a_job_is_in_flight(self, tmp_path):
        started = tmp_path / "started"
        release = tmp_path / "release"
        before = set(multiprocessing.active_children())
        ctx = ClusterContext(num_executors=2, backend="process")
        hold = _HoldUntilReleased(str(started), str(release))
        failure = {}

        def run_job():
            try:
                ctx.parallelize(range(32), 32).map(hold).collect()
            except RuntimeError as exc:
                failure["error"] = exc

        job = threading.Thread(target=run_job)
        job.start()
        deadline = time.monotonic() + 30
        while not started.exists():
            assert time.monotonic() < deadline
            time.sleep(0.005)
        # shutdown cancels the queued tasks, then waits out the two in
        # the workers, which the timer releases
        timer = threading.Timer(0.3, release.touch)
        timer.start()
        self._audit(ctx, before)
        job.join(timeout=30)
        timer.join(timeout=30)
        assert not job.is_alive()
        assert "executor pool was shut down" in str(failure["error"])


#: thirty process-backend jobs, each followed by a full collection; the
#: lookups compute their partition on the driver, which maps the
#: workers' shuffle segments. Releasing a shuffle closes the driver's
#: mappings, so the last job's RDD stays alive: the exit path has
#: mappings to release
_JOBS_THEN_GC = """
import gc, operator
from repro.engine import ClusterContext, shm

kept = []
with ClusterContext(num_executors=2, backend="process") as ctx:
    for _ in range(30):
        pairs = ctx.parallelize([(k % 8, float(k)) for k in range(4000)], 4)
        live = pairs.reduce_by_key(operator.add)
        kept.append(live.lookup(3))
        gc.collect()
assert shm._ATTACHED, "the driver mapped no segment"
"""


def _run_script(script: str) -> str:
    """Run ``script`` in a fresh interpreter; its stderr (exit 0)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True,
                               timeout=300, env=env)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stderr


def test_process_jobs_then_gc_exit_cleanly():
    stderr = _run_script(_JOBS_THEN_GC)
    assert "Traceback" not in stderr, stderr[-2000:]


#: a reducer's shm-exported buckets, decoded on the driver and kept
#: alive until exit, so their views still use the mapped segment
_VIEWS_KEPT_TO_EXIT = """
from repro.engine import ClusterContext, HashPartitioner, shm
from repro.engine.rdd import ShuffledRDD

with ClusterContext(num_executors=2, backend="process") as ctx:
    pairs = ctx.parallelize([(k % 8, float(k)) for k in range(4000)], 4)
    placed = pairs.partition_by(HashPartitioner(2))
    placed.collect()
    shuffled = placed.dependencies[0]
    assert isinstance(shuffled, ShuffledRDD)
    kept = shuffled._reduce_segments(0, 1)
assert kept and shm._ATTACHED, "no bucket was read from a mapped segment"
"""


def test_views_of_a_mapped_segment_alive_at_exit_exit_cleanly():
    stderr = _run_script(_VIEWS_KEPT_TO_EXIT)
    assert "Exception ignored" not in stderr, stderr[-2000:]
    assert "BufferError" not in stderr, stderr[-2000:]


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


def _committed_buckets(rdd) -> list:
    """Every non-empty bucket the shuffles under ``rdd`` committed."""
    return [segment for node in collect_rdds(rdd)
            for buckets in getattr(node, "_buckets", ())
            if buckets is not None
            for bucket in buckets for segment in bucket]


def _add_in_place(a, b):
    a += b
    return a


def _process_group_strings(ctx):
    records = [(f"k{i % 24}", i) for i in range(2400)]
    grouped = ctx.parallelize(records, 4).group_by_key()
    return grouped, sorted((k, sorted(vs)) for k, vs in grouped.collect())


def _process_combine_chunks(ctx):
    rng = np.random.default_rng(5)
    sides = []
    for parts in (4, 3):
        chunked = ArrayRDD.from_numpy(ctx, rng.random((128, 128)),
                                      (64, 64), valid=rng.random((128, 128))
                                      < 0.6)
        # no partitioner: the combine shuffles this side's chunk records
        sides.append(ArrayRDD(ctx.parallelize(chunked.rdd.collect(), parts),
                              chunked.meta, ctx))
    combined = sides[0].combine(sides[1], operator.add, how="and")
    return combined.rdd, combined.collect_dense(fill=0.0)


def _process_matmul_partials(ctx):
    rng = np.random.default_rng(6)
    a, b = rng.random((128, 96)), rng.random((96, 128))
    product = SpangleMatrix.from_numpy(ctx, a, (32, 32), num_partitions=3) \
        .multiply(SpangleMatrix.from_numpy(ctx, b, (32, 32),
                                           num_partitions=4))
    return product.array.rdd, product.to_numpy()


TUPLE_BUCKET_SCENARIOS = {
    "group_by_key_strings": _process_group_strings,
    "combine_chunks": _process_combine_chunks,
    "matmul_partials": _process_matmul_partials,
}


class TestPayloadsCarryTupleBucketRefs:
    """Buckets the columnar codec refuses (``(key, value)`` lists) cross
    by shared memory, as packed batches do, and load writable."""

    @pytest.mark.parametrize("name", sorted(TUPLE_BUCKET_SCENARIOS))
    def test_tuple_buckets_commit_as_shm_refs_on_process(self, name):
        scenario = TUPLE_BUCKET_SCENARIOS[name]
        with ClusterContext(num_executors=2) as ctx:
            _rdd, expected = scenario(ctx)
        with ClusterContext(num_executors=2, backend="process") as ctx:
            rdd, got = scenario(ctx)
            buckets = _committed_buckets(rdd)
            assert buckets and all(isinstance(ref, ShmRef)
                                   for ref in buckets)
            assert any(ref.writable for ref in buckets)
        assert pickle.dumps(got) == pickle.dumps(expected)

    def test_payload_of_a_reduce_stage_does_not_grow_with_its_buckets(self):
        sizes = {}
        for width in (8, 8192):
            records = [(f"k{i % 8}", np.full(width, float(i)))
                       for i in range(64)]
            with ClusterContext(num_executors=2, backend="process") as ctx:
                grouped = ctx.parallelize(records, 4).group_by_key()
                payloads = _record_payloads(ctx)
                got = grouped.collect()
                before = ctx.metrics.snapshot()
                grouped.count()
                delta = ctx.metrics.snapshot() - before
            assert sum(len(vs) for _k, vs in got) == 64
            assert len(payloads) == 8 + 4    # map tasks, then reducers
            reduce_bytes = sum(map(len, payloads[-4:]))
            assert delta.task_payload_bytes == reduce_bytes
            sizes[width] = reduce_bytes
        # 1000x the bucket bytes; only the refs' offsets widen
        assert sizes[8192] < 1.2 * sizes[8]

    @pytest.mark.parametrize("width", [4, 2048])
    def test_in_place_merge_matches_serial_on_process(self, width):
        results = {}
        for mode, extra in (("serial", {}), ("process", {"backend":
                                                           "process"})):
            with ClusterContext(num_executors=2, **extra) as ctx:
                records = [(i % 5, np.full(width, float(i)))
                           for i in range(40)]
                summed = ctx.parallelize(records, 4) \
                    .reduce_by_key(_add_in_place)
                results[mode] = pickle.dumps(sorted(
                    (k, v.tolist()) for k, v in summed.collect()))
        assert results["process"] == results["serial"]

    def test_driver_reads_of_tuple_buckets_map_nothing_on_process(self):
        # a lookup (as ``ArrayRDD.get`` makes) computes its partition on
        # the driver, which reads the combine's chunk records as copies
        with ClusterContext(num_executors=2, backend="process") as ctx:
            rdd, _dense = _process_combine_chunks(ctx)
            buckets = _committed_buckets(rdd)
            assert buckets and all(isinstance(ref, ShmRef) and ref.writable
                                   for ref in buckets)
            (chunk,) = rdd.lookup(3)
            assert pickle.dumps(chunk) == pickle.dumps(dict(rdd.collect())[3])
            del rdd, buckets, chunk
            gc.collect()
            prefix = ctx.shm_registry.prefix
            assert _mapped_segments(os.getpid(), prefix) == set()

    def test_full_shm_ships_buckets_inline_on_process(self, monkeypatch):
        def full(fd, buffers, offset):
            raise OSError(errno.ENOSPC, "No space left on device")

        with ClusterContext(num_executors=2) as ctx:
            _rdd, expected = _process_group_strings(ctx)
        # the forked workers inherit the patched write
        monkeypatch.setattr(os, "pwritev", full)
        with ClusterContext(num_executors=2, backend="process") as ctx:
            grouped, got = _process_group_strings(ctx)
            buckets = _committed_buckets(grouped)
            assert buckets and not any(isinstance(bucket, ShmRef)
                                       for bucket in buckets)
            assert ctx.metrics.snapshot().shm_segments_created == 0
            assert leaked_segments(ctx.shm_registry.prefix) == []
        assert got == expected

    def test_struck_tuple_buckets_recompute_on_process(self):
        with ClusterContext(num_executors=2, backend="process") as ctx:
            rdd, _dense = _process_combine_chunks(ctx)
            first = pickle.dumps(sorted(rdd.collect()))
            lost = FaultInjector(ctx, seed=0).strike(rdd, kill_fraction=1.0)
            assert lost >= 2          # both combine sides' map output
            assert pickle.dumps(sorted(rdd.collect())) == first
            prefix = ctx.shm_registry.prefix
        assert leaked_segments(prefix) == []


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

    @pytest.mark.parametrize("density", [1.0, 0.3, 0.002],
                             ids=["dense", "sparse", "super_sparse"])
    def test_collected_chunks_pickle_as_serial(self, density):
        """Chunks and their bitmasks re-intern their dtypes when they
        are unpickled, so a whole collected list of chunks pickles as
        the serial one does, not only each chunk alone."""
        from repro import ArrayRDD

        rng = np.random.default_rng(7)
        values = rng.random((64, 64))
        valid = rng.random((64, 64)) < density

        def collect(**kwargs):
            with ClusterContext(num_executors=2, **kwargs) as ctx:
                arr = ArrayRDD.from_numpy(ctx, values, (32, 32),
                                          valid=valid, num_partitions=4)
                return (arr * 2.0).rdd.collect()

        assert pickle.dumps(collect(backend="process")) \
            == pickle.dumps(collect())

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

class _ByNumber(Partitioner):
    """Places key ``"k<n>"`` at ``n % num_partitions``."""

    def partition(self, key) -> int:
        return int(key[1:]) % self.num_partitions


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
        # string keys do not pack, so the buckets are tuple lists, which
        # cross as shm refs like packed ones; placing them by their
        # number (not the seeded str hash) gives each reducer 6 keys
        records = [(f"k{i % 24}", i) for i in range(24000)]
        by_number = _ByNumber(4)
        with ClusterContext(num_executors=2, backend="process") as ctx:
            grouped = ctx.parallelize(records, 4).group_by_key(by_number)
            payloads = _record_payloads(ctx)
            got = grouped.collect()
            inline = [len(task_dumps([load_ref(ref) for ref in bucket]))
                      for bucket in grouped._buckets[0]]
        assert sorted(v for _k, vs in got for v in vs) == list(range(24000))
        tasks = [task_loads(payload)["task"] for payload in payloads]
        results = [(task, payload) for task, payload in zip(tasks, payloads)
                   if isinstance(task, ResultTask)]
        assert len(results) == 4
        for task, payload in results:
            assert list(task.rdd._buckets[0]) == [task.index]
            assert all(isinstance(ref, ShmRef)
                       for ref in task.rdd._buckets[0][task.index])
            assert len(payload) < inline[task.index] / 10

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
            got = ctx.process_runner.run(ResultTask(summed(ctx), 1, list))
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
