"""ClusterContext: the engine's entry point (Spark's SparkContext).

Owns the simulated cluster configuration (number of executors, default
parallelism), the block cache, the metrics registry, and job execution.
Jobs run serially by default — determinism first — with an executor
thread pool or forked worker processes as the alternatives.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from repro.engine.costmodel import ClusterCostModel
from repro.engine.metrics import MetricsRegistry
from repro.engine.rdd import (
    GeneratedRDD,
    ParallelCollectionRDD,
    RDD,
    run_task_with_retries,
)
from repro.engine.scheduler import ExecutorPool, StageScheduler
from repro.engine.storage import CacheManager
from repro.engine.tracing import Tracer, profiles_from_spans
from repro.errors import EngineError


def _check_non_negative(name: str, value) -> None:
    """Reject a negative size up front, naming it; None and 0 pass."""
    if value is not None and value < 0:
        raise EngineError(f"{name} must be >= 0, got {value}")


class ClusterContext:
    """A simulated Spark cluster in one process, in one of three
    configurations that return byte-identical results and counters:

    - serial (the default): tasks run inline on the driver thread, one
      stage at a time;
    - thread (``use_threads=True``): tasks run on ``num_executors``
      executor threads;
    - process (``backend="process"``): task bodies run in
      ``num_executors`` forked worker processes, exchanging shuffle
      blocks and cached chunks through shared memory
      (:mod:`repro.engine.shm`); tasks and their closures must pickle
      (:mod:`repro.engine.closure` ships lambdas by value).

    Parameters
    ----------
    num_executors:
        Size of the simulated cluster: the default parallelism, the
        executor count of :meth:`measure`'s utilization, and the thread
        or worker count of the parallel configurations.
    default_parallelism:
        Default partition count for :meth:`parallelize`.
    cache_budget_bytes:
        Memory budget of the block cache (None = unbounded).
    use_threads:
        Select the thread configuration.
    backend:
        ``"thread"`` (default: serial unless ``use_threads``) or
        ``"process"``.
    spill_dir:
        Directory for spilled blocks (default: a private temp dir,
        removed with the context). :meth:`shutdown` unlinks the spill
        files it holds.
    repack_on_admission:
        Re-run the chunk mode policy on each cached chunk's current
        density at admission, shrinking stale encodings. Off by
        default: it rewrites explicitly forced chunk modes.
    trace:
        Record a structured span tree for every job
        (:mod:`repro.engine.tracing`), each job closing with a
        ``gauge`` sample of counters, cache ledger, shm residency and
        pool occupancy (:mod:`repro.engine.telemetry`), from which
        :func:`repro.engine.top.health_events` reads the cluster's
        health. Off by default; when off, the instrumentation is a
        no-op attribute check.
    """

    def __init__(self, num_executors: int = 4, default_parallelism=None,
                 cache_budget_bytes=None, use_threads: bool = False,
                 task_retries: int = 3, trace: bool = False,
                 spill_dir=None, repack_on_admission: bool = False,
                 backend: str = "thread"):
        if num_executors <= 0:
            raise EngineError("num_executors must be positive")
        if task_retries < 0:
            raise EngineError("task_retries must be >= 0")
        _check_non_negative("default_parallelism", default_parallelism)
        if backend not in ("thread", "process"):
            raise EngineError(
                f"unknown backend {backend!r}: expected 'thread' or "
                f"'process'")
        self.num_executors = num_executors
        self.default_parallelism = default_parallelism or num_executors
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=trace, num_executors=num_executors)
        self.cost_model = ClusterCostModel()
        self.cache = CacheManager(self.metrics,
                                  budget_bytes=cache_budget_bytes,
                                  tracer=self.tracer,
                                  spill_dir=spill_dir,
                                  repack_on_admission=repack_on_admission)
        self.use_threads = use_threads
        self.backend = backend
        self.task_retries = task_retries
        self._rdd_counter = 0
        # the executor pool is persistent: created lazily on the first
        # parallel job and reused by every job after it (Spark keeps
        # executors alive across jobs; so do we)
        self.executor_pool = ExecutorPool(num_executors)
        # the shared-memory plane: a registry of segments this context
        # created (or adopted from its workers), metered and unlinked
        # at shutdown / interpreter exit
        from repro.engine.shm import SharedSegmentRegistry

        self.shm_registry = SharedSegmentRegistry(self.metrics)
        from repro.engine.telemetry import NnzBalanceStats, record_sample

        # every traced job span closes with one gauge event under it
        self.tracer.on_job_end = functools.partial(record_sample, self)
        self.nnz_stats = NnzBalanceStats()
        self.process_runner = None
        if backend == "process":
            from repro.engine.worker import ProcessTaskRunner

            self.process_runner = ProcessTaskRunner(self)
            # fork every worker NOW, from this thread — forking later,
            # from a dispatcher thread, risks cloning held locks
            self.process_runner.ensure_started()
        self.scheduler = StageScheduler(self)

    @property
    def parallel(self) -> bool:
        """Whether jobs run their tasks concurrently (either backend)."""
        return self.use_threads or self.process_runner is not None

    def _next_rdd_id(self) -> int:
        self._rdd_counter += 1
        return self._rdd_counter

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------

    def parallelize(self, data, num_partitions=None, partitioner=None) -> RDD:
        """Distribute a driver-side collection."""
        if num_partitions is None:
            num_partitions = self.default_parallelism
        _check_non_negative("num_partitions", num_partitions)
        return ParallelCollectionRDD(self, data, num_partitions,
                                     partitioner=partitioner)

    def generate(self, num_partitions: int, func, partitioner=None) -> RDD:
        """Create an RDD whose partition ``i`` is ``func(i)``.

        The generator runs inside tasks, so synthetic datasets larger than
        driver memory never exist as a single list.
        """
        _check_non_negative("num_partitions", num_partitions)
        return GeneratedRDD(self, num_partitions, func,
                            partitioner=partitioner)

    # ------------------------------------------------------------------
    # broadcast
    # ------------------------------------------------------------------

    def broadcast(self, value):
        """Ship a read-only value to every executor (metered).

        In-process the value is shared by reference; the network cost a
        cluster would pay — value size × executors — is recorded so the
        cost model charges for it.
        """
        from repro.engine.broadcast import Broadcast
        from repro.engine.sizing import estimate_size as _size

        nbytes = _size(value)
        self.metrics.add(broadcast_bytes=nbytes * self.num_executors)
        broadcast = Broadcast(value, nbytes)
        self.tracer.event(broadcast.label, "broadcast", bytes=nbytes,
                          shipped_bytes=nbytes * self.num_executors)
        return broadcast

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------

    def run_job(self, rdd: RDD, partition_func) -> list:
        """Apply ``partition_func`` to every partition; return the results.

        Delegates to the stage scheduler: pending shuffle map stages
        beneath ``rdd`` materialize first, then the result stage, all
        through its one stage loop (tasks on the persistent executor
        pool on parallel contexts). Records one job, one result stage,
        and one task per partition; shuffle map stages record
        themselves as they materialize.
        """
        return self.scheduler.run_job(rdd, partition_func)

    def run_partition(self, rdd: RDD, index: int) -> list:
        """Compute a single partition (used by ``lookup``): one job of
        one stage of one driver-side, retried task."""
        if not 0 <= index < rdd.num_partitions:
            raise EngineError(
                f"partition index {index} out of range for {rdd!r}"
            )
        self.metrics.add(jobs_run=1, stages_run=1)
        with self.tracer.span(f"{rdd.name}:partition", "job",
                              executors=self.num_executors):
            with self.tracer.span(rdd.name, "stage", stage_kind="result"):
                with self.tracer.span("task", "task", partition=index):
                    return run_task_with_retries(
                        self, index, lambda: rdd.iterator(index))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the executor pool, the worker processes, unlink any
        shared-memory segments and every spill file. An *idle* context
        remains usable: the next parallel job lazily restarts the pools
        (shared-memory block handles exported to workers are
        invalidated, so cached blocks re-export on the next job);
        in-memory cached blocks stay, and a block that was spilled
        recomputes from lineage on its next read."""
        self.executor_pool.shutdown()
        if self.process_runner is not None:
            self.process_runner.shutdown()
        self.shm_registry.shutdown()
        self.cache.drop_spilled()

    def __enter__(self) -> "ClusterContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # fault injection and measurement helpers
    # ------------------------------------------------------------------

    def fail_partition(self, rdd: RDD, index: int) -> bool:
        """Simulate losing a cached partition of ``rdd``.

        Returns whether a cached block was present to lose. Subsequent
        access transparently recomputes from lineage.
        """
        return self.cache.drop_partition(rdd.rdd_id, index)

    @contextmanager
    def measure(self):
        """Measure wall time and metric deltas for a code block.

        Yields a holder that on exit carries ``wall_s``, ``delta`` (a
        :class:`MetricsSnapshot`) and ``report`` (the modeled
        :class:`CostReport`). On a traced context it also carries, from
        the spans of the jobs that started inside the block,
        ``stage_timings`` (their :class:`~repro.engine.tracing.StageProfile`
        s, kind ``"shuffle"`` or ``"result"``), ``task_times``,
        ``busy_task_s`` and ``utilization`` (busy task time over
        ``wall_s × num_executors``). Untraced, the stage list is empty
        and ``utilization`` is 0.
        """
        holder = _Measurement()
        before = self.metrics.snapshot()
        start = time.perf_counter()
        try:
            yield holder
        finally:
            holder.wall_s = time.perf_counter() - start
            holder.delta = self.metrics.snapshot() - before
            holder.report = self.cost_model.report(holder.wall_s,
                                                   holder.delta)
            # spans share the perf_counter clock, and a job's spans all
            # start after the job does
            spans = [span for span in self.tracer.spans()
                     if span.start_s >= start]
            holder.stage_timings = [
                stage for profile in profiles_from_spans(spans)
                for stage in profile.stages]
            holder.task_times = [
                duration for stage in holder.stage_timings
                for duration in stage.task_times]
            holder.busy_task_s = sum(holder.task_times)
            if holder.wall_s > 0:
                holder.utilization = (
                    holder.busy_task_s
                    / (holder.wall_s * self.num_executors))


class _Measurement:
    """Result holder for :meth:`ClusterContext.measure`."""

    wall_s = 0.0
    delta = None
    report = None
    stage_timings = ()
    task_times = ()
    busy_task_s = 0.0
    utilization = 0.0
