"""Stage-based DAG scheduling over a persistent executor pool.

Spark's DAGScheduler cuts a job's lineage at wide (shuffle)
dependencies into stages and runs each stage's tasks across long-lived
executors; narrow chains pipeline inside a task. This module does the
same for the mini engine:

- :class:`ExecutorPool` — a pool of executor threads owned by a
  :class:`~repro.engine.context.ClusterContext`, created once and
  reused across every job (task-launch overhead is paid once per
  context, not once per job — the first-order cost the supercomputer
  benchmarking literature attributes to Spark's scheduler).
- :class:`StageScheduler` — walks an RDD's lineage, builds the stage
  graph (explicit dependency edges between the pending shuffle map
  stages), runs the map stages, then the result stage's tasks.

Stage execution is **pipelined** on parallel contexts: every
dependency-free stage's map tasks are submitted to the shared
:class:`ExecutorPool` at once, per-stage completion counts track each
map output as it lands, and a downstream stage launches the moment its
last input block arrives — the two sides of a join/cogroup/matmul
overlap fully instead of serializing at stage barriers. Serial
contexts, nested jobs inside executor threads, and single-stage jobs
take the one-stage-at-a-time barrier loop instead (nothing could
overlap there).

Determinism contract: the serial path (``use_threads=False``, the
default), the threaded path, and the pipelined path all produce
byte-identical results and identical logical metrics (jobs, stages,
tasks, shuffle records/bytes). Only wall-clock observations (stage
timings, task-time histograms, span timestamps) differ. Shuffle
buckets are merged in parent-partition order and result rows are
collected in partition order regardless of which executor finished
first; concurrent stages hold their per-``(rdd, which)`` materialize
lock from launch to commit so map tasks never double-run.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor

from repro.engine.rdd import RDD, run_task_with_retries
from repro.engine.sizing import estimate_partition_size, estimate_size
from repro.engine.storage import StorageLevel
from repro.errors import EngineError


class ExecutorPool:
    """A persistent pool of executor threads.

    The underlying :class:`ThreadPoolExecutor` is created lazily on the
    first parallel job and then reused for the life of the context —
    never per job. numpy kernels release the GIL, so chunk-heavy tasks
    genuinely overlap. Under ``backend="process"`` the same pool serves
    as the *dispatcher* layer: each thread shepherds one in-flight task
    through the worker-process round trip.

    Shutting the pool down while it is idle is reversible — the next
    parallel job lazily recreates the executor. Shutting it down while
    tasks are in flight (a context exiting mid-job) cancels the queued
    tasks and marks the pool broken: the running job fails with a clear
    ``RuntimeError`` and the pool refuses to silently recreate an
    executor afterwards.
    """

    def __init__(self, num_workers: int, name: str = "repro-executor"):
        self.num_workers = num_workers
        self._prefix = f"{name}-{id(self):x}"
        self._executor = None
        self._lock = threading.Lock()
        self._active = 0
        self._broken = False
        # task-level occupancy gauges for the telemetry sampler:
        # _queued counts submitted-but-not-started tasks, _running
        # counts tasks currently on an executor thread
        self._queued = 0
        self._running = 0
        # stage-level gauges maintained by the scheduler: stages whose
        # dependencies are satisfied but whose tasks have not launched,
        # and stages launched but not yet committed
        self._ready_stages = 0
        self._inflight_stages = 0

    @property
    def started(self) -> bool:
        return self._executor is not None

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._broken:
                raise RuntimeError(
                    "executor pool was shut down while tasks were in "
                    "flight; it cannot be reused — create a new context")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix=self._prefix,
                )
            return self._executor

    def in_worker(self) -> bool:
        """Whether the calling thread is one of this pool's executors."""
        return threading.current_thread().name.startswith(self._prefix)

    def gauges(self) -> dict:
        """Occupancy in one lock acquisition (telemetry hook), keyed by
        catalog name; the stage pair belongs to the scheduler."""
        with self._lock:
            return {
                "pool.busy_threads": self._running,
                "pool.queued_tasks": self._queued,
                "pool.active_jobs": self._active,
                "pool.num_workers": self.num_workers,
                "scheduler.ready_stages": self._ready_stages,
                "scheduler.inflight_stages": self._inflight_stages,
            }

    # ------------------------------------------------------------------
    # stage-level gauges (maintained by the StageScheduler)
    # ------------------------------------------------------------------

    def stage_ready(self) -> None:
        """A stage's dependencies are satisfied; it awaits launch."""
        with self._lock:
            self._ready_stages += 1

    def stage_launched(self) -> None:
        """A ready stage's map tasks were submitted."""
        with self._lock:
            self._ready_stages -= 1
            self._inflight_stages += 1

    def stage_finished(self, launched: bool = True) -> None:
        """A stage committed (``launched``) or was found already
        materialized / abandoned before launch (``not launched``)."""
        with self._lock:
            if launched:
                self._inflight_stages -= 1
            else:
                self._ready_stages -= 1

    def map_tasks(self, func, items) -> list:
        """``[func(item) for item in items]``, tasks running concurrently.

        Results come back in submission order whatever the completion
        order. Calls from inside a worker thread fall back to serial
        execution so nested jobs can never deadlock waiting for their
        own pool slot. The first task exception is re-raised, after all
        tasks have finished (no task outlives its job).
        """
        items = list(items)
        if len(items) <= 1 or self.in_worker():
            return [func(item) for item in items]
        executor = self._ensure()

        def run_gauged(item):
            # queued -> running on start; running -> done in finally
            with self._lock:
                self._queued -= 1
                self._running += 1
            try:
                return func(item)
            finally:
                with self._lock:
                    self._running -= 1

        with self._lock:
            self._active += 1
            self._queued += len(items)
        submitted = 0
        try:
            try:
                futures = []
                for item in items:
                    futures.append(executor.submit(run_gauged, item))
                    submitted += 1
            except RuntimeError as exc:
                # the executor was shut down between _ensure and submit
                raise RuntimeError(
                    "executor pool was shut down while a job was "
                    "running; its tasks cannot be scheduled") from exc
            results = []
            first_error = None
            for future in futures:
                try:
                    results.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    if first_error is None:
                        first_error = exc
                    results.append(None)
            if first_error is not None:
                if isinstance(first_error, CancelledError):
                    raise RuntimeError(
                        "executor pool was shut down mid-job; queued "
                        "tasks were cancelled") from first_error
                raise first_error
            return results
        finally:
            # tasks that never started (cancelled, or never submitted)
            # never passed through run_gauged — reconcile the gauge
            never_started = len(items) - submitted
            never_started += sum(1 for future in futures
                                 if future.cancelled())
            with self._lock:
                self._active -= 1
                self._queued -= never_started

    def begin_job(self) -> None:
        """Mark a pipelined job active.

        Pairs with :meth:`end_job`; while active, :meth:`shutdown`
        marks the pool broken and cancels queued tasks, exactly as it
        does for a job inside :meth:`map_tasks`.
        """
        self._ensure()
        with self._lock:
            self._active += 1

    def end_job(self) -> None:
        with self._lock:
            self._active -= 1

    def submit_task(self, func):
        """Submit one task; returns its ``Future``.

        The pipelined scheduler's task-granular entry point: gauge
        accounting matches :meth:`map_tasks` (queued on submit, running
        while on an executor thread; a done-callback reconciles tasks
        cancelled before they started). The caller owns completion
        handling — nothing here waits.
        """
        executor = self._ensure()

        def run_gauged():
            with self._lock:
                self._queued -= 1
                self._running += 1
            try:
                return func()
            finally:
                with self._lock:
                    self._running -= 1

        def reconcile(future):
            if future.cancelled():
                with self._lock:
                    self._queued -= 1

        with self._lock:
            self._queued += 1
        try:
            future = executor.submit(run_gauged)
        except RuntimeError as exc:
            # the executor was shut down between _ensure and submit
            with self._lock:
                self._queued -= 1
            raise RuntimeError(
                "executor pool was shut down while a job was "
                "running; its tasks cannot be scheduled") from exc
        future.add_done_callback(reconcile)
        return future

    def shutdown(self) -> None:
        with self._lock:
            executor = self._executor
            self._executor = None
            active = self._active
            if executor is not None and active:
                self._broken = True
        if executor is None:
            return
        if active:
            executor.shutdown(wait=False, cancel_futures=True)
        else:
            executor.shutdown(wait=True)


class _Stage:
    """One node of a job's stage graph: a pending shuffle map stage.

    ``pending`` counts unfinished dependency stages; the pipelined
    scheduler launches the stage when it reaches zero and ``done``
    counts map outputs until every parent partition has landed.
    """

    __slots__ = ("node", "which", "key", "label", "num_tasks", "deps",
                 "children", "pending", "done", "outputs", "span",
                 "lock", "start_s", "ready_s", "state", "gauge")

    def __init__(self, node, which):
        self.node = node
        self.which = which
        self.key = (node.rdd_id, which)
        self.label = node.shuffle_label(which)
        self.num_tasks = node.dependencies[which].num_partitions
        self.deps = []
        self.children = []
        self.pending = 0
        self.done = 0
        self.outputs = None
        self.span = None
        self.lock = None
        self.start_s = 0.0
        self.ready_s = 0.0
        self.state = "waiting"
        self.gauge = None

    @property
    def edge_name(self) -> str:
        """Deterministic stage identifier for ``depends_on`` attrs."""
        return f"{self.label}#{self.node.rdd_id}"

    def depends_on(self) -> list:
        return sorted(dep.edge_name for dep in self.deps)


class StageScheduler:
    """Cut lineage at wide dependencies; run stages over the pool."""

    def __init__(self, context):
        self.context = context

    # ------------------------------------------------------------------
    # DAG analysis
    # ------------------------------------------------------------------

    def shuffle_stages(self, rdd: RDD) -> list:
        """Pending shuffle map stages beneath ``rdd``, parents first.

        Each entry is ``(shuffle_rdd, which)``, one per wide parent slot
        (:meth:`RDD.wide_slots`). Narrow parents, already-materialized
        map output, checkpointed subtrees, and subtrees hidden behind a
        fully cached RDD (whose partitions will be served from the
        block cache without recomputation) are all skipped, so eager
        scheduling records exactly the stages lazy evaluation would.
        """
        ordered = []
        seen = set()

        def visit(node: RDD) -> None:
            if node.rdd_id in seen:
                return
            seen.add(node.rdd_id)
            if node.is_checkpointed or self._fully_cached(node):
                return
            for dep in node.dependencies:
                visit(dep)
            for which in node.wide_slots():
                if not node.shuffle_ready(which):
                    ordered.append((node, which))

        visit(rdd)
        return ordered

    def _fully_cached(self, node: RDD) -> bool:
        if node.storage_level is StorageLevel.NONE:
            return False
        cache = self.context.cache
        return all(
            cache.contains(node.rdd_id, index)
            for index in range(node.num_partitions)
        )

    def stage_graph(self, rdd: RDD) -> tuple:
        """``(stages, result_deps)``: the pending shuffle map stages as
        an explicit dependency DAG, plus the result stage's direct
        stage dependencies.

        ``stages`` is :meth:`shuffle_stages` order (parents first) with
        ``deps``/``children`` edges wired between the nearest pending
        stages; ``result_deps`` are the stages the result stage's tasks
        read from directly. Both are deterministic for a given lineage,
        so barrier and pipelined runs stamp identical ``depends_on``
        span attributes.
        """
        ordered = self.shuffle_stages(rdd)
        stages = [_Stage(node, which) for node, which in ordered]
        by_key = {stage.key: stage for stage in stages}
        for stage in stages:
            root = stage.node.dependencies[stage.which]
            for dep in self._direct_stage_deps(root, by_key):
                stage.deps.append(dep)
                dep.children.append(stage)
            stage.pending = len(stage.deps)
        return stages, self._direct_stage_deps(rdd, by_key)

    def _direct_stage_deps(self, root: RDD, by_key: dict) -> list:
        """The nearest pending stages reachable from ``root`` without
        crossing another pending stage boundary.

        Mirrors :meth:`shuffle_stages`'s descent rules (checkpointed
        and fully cached subtrees are opaque; narrow and materialized
        shuffles are transparent) but stops at each pending stage: what
        lies beneath one is *its* dependency, not the caller's.
        """
        deps = []
        found = set()
        seen = set()

        def visit(node: RDD) -> None:
            if node.rdd_id in seen:
                return
            seen.add(node.rdd_id)
            if node.is_checkpointed or self._fully_cached(node):
                return
            for which, parent in enumerate(node.dependencies):
                stage = by_key.get((node.rdd_id, which))
                if stage is None:
                    visit(parent)
                elif stage.key not in found:
                    found.add(stage.key)
                    deps.append(stage)

        visit(root)
        return deps

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _pool(self):
        # the process backend also dispatches through the thread pool:
        # each dispatcher thread drives one worker-process round trip
        if self.context.parallel:
            return self.context.executor_pool
        return None

    def run_job(self, rdd: RDD, partition_func) -> list:
        """One job: materialize pending shuffle stages, then the result
        stage. Records one job, one result stage, one task per result
        partition; shuffle map stages record themselves as they launch.

        Map stages run through :meth:`_run_stage_graph` — overlapped on
        parallel contexts, one at a time behind barriers otherwise. The
        result stage launches as soon as its shuffle parents commit;
        since every pending stage feeds the result stage's partition
        computes transitively, that moment is exactly when the last
        map stage lands.
        """
        metrics = self.context.metrics
        metrics.add(jobs_run=1)
        pool = self._pool()
        tracer = self.context.tracer
        with tracer.span(rdd.name, "job",
                         executors=self.context.num_executors,
                         partitions=rdd.num_partitions) as job_span:
            result_deps = self._run_stage_graph(rdd, pool, job_span)
            metrics.add(stages_run=1)
            start = time.perf_counter()
            with tracer.span(
                    rdd.name, "stage", stage_kind="result",
                    num_tasks=rdd.num_partitions,
                    depends_on=sorted(stage.edge_name
                                      for stage in result_deps),
                    ready_at=start, launched_at=start) as stage_span:
                results = self._run_tasks(
                    rdd, range(rdd.num_partitions), partition_func, pool,
                    stage_span)
            metrics.record_stage_timing(
                rdd.name, "result", time.perf_counter() - start,
                rdd.num_partitions)
        return results

    def _run_stage_graph(self, rdd: RDD, pool, parent_span) -> list:
        """Materialize every pending shuffle map stage beneath ``rdd``;
        returns the result stage's direct stage dependencies.

        Pipelined mode needs a pool (map tasks are submitted, not
        awaited in place), more than one stage (a single stage cannot
        overlap with anything), and a driver-side caller (nested jobs
        inside worker threads fall back, mirroring ``map_tasks``).
        """
        stages, result_deps = self.stage_graph(rdd)
        if not stages:
            return result_deps
        if (pool is not None and len(stages) > 1
                and not pool.in_worker()):
            self._run_stages_pipelined(stages, pool, parent_span)
        else:
            self._run_stages_barrier(stages, pool, parent_span)
        return result_deps

    def _run_stages_barrier(self, stages, pool, parent_span) -> None:
        """Topological one-at-a-time stage execution (the pre-pipelined
        scheduler): each stage materializes to completion before the
        next starts. Stage spans carry the same ``depends_on`` edges as
        pipelined runs, so the logical trace is identical."""
        gauges = self.context.executor_pool
        for stage in stages:
            gauges.stage_ready()
            launched = not stage.node.shuffle_ready(stage.which)
            if launched:
                gauges.stage_launched()
            try:
                stage.node.materialize_stage(
                    stage.which, pool=pool,
                    depends_on=stage.depends_on(),
                    parent_span=parent_span)
            finally:
                gauges.stage_finished(launched=launched)

    def _run_stages_pipelined(self, stages, pool, parent_span) -> None:
        """Event-driven overlapped stage execution.

        The driver thread runs a completion loop over a queue fed by
        future done-callbacks; per-stage ``pending`` counts gate
        launches and per-stage ``done`` counts detect the last map
        output. A stage holds its per-``(rdd, which)`` materialize lock
        from launch to commit — a stage whose lock is already held (a
        concurrent driver job is materializing it) is polled until that
        job commits, then adopted as finished. The first task failure
        stops new launches, drains in-flight tasks (no task outlives
        its job), and surfaces as one diagnostic.
        """
        tracer = self.context.tracer
        metrics = self.context.metrics
        events = queue.SimpleQueue()
        state = {"outstanding": 0, "failure": None}
        remaining = {stage.key for stage in stages}
        foreign = []

        def stage_done(stage, launched):
            stage.state = "done"
            remaining.discard(stage.key)
            pool.stage_finished(launched=launched)
            stage.gauge = None
            for child in stage.children:
                child.pending -= 1
                if child.pending == 0 and child.state == "waiting":
                    mark_ready(child)

        def mark_ready(stage):
            stage.state = "ready"
            stage.ready_s = time.perf_counter()
            pool.stage_ready()
            stage.gauge = "ready"
            try_launch(stage)

        def try_launch(stage):
            if state["failure"] is not None:
                return
            lock = stage.node._materialize_lock(stage.which)
            if not lock.acquire(blocking=False):
                # a concurrent driver job is materializing this stage;
                # poll rather than block the event loop on its lock
                foreign.append(stage)
                return
            if stage.node.shuffle_ready(stage.which):
                lock.release()
                stage_done(stage, launched=False)
                return
            launch(stage, lock)

        def launch(stage, lock):
            metrics.add(stages_run=1)
            stage.state = "running"
            stage.lock = lock  # held from launch to commit
            stage.start_s = time.perf_counter()
            stage.outputs = [None] * stage.num_tasks
            stage.span = tracer.start(
                stage.label, "shuffle", parent=parent_span,
                detached=True, num_tasks=stage.num_tasks,
                depends_on=stage.depends_on(),
                ready_at=stage.ready_s, launched_at=stage.start_s)
            pool.stage_launched()
            stage.gauge = "inflight"
            for parent_index in range(stage.num_tasks):
                def run(node=stage.node, which=stage.which,
                        index=parent_index, span=stage.span):
                    return node.run_shuffle_map_task(which, index, span)

                try:
                    future = pool.submit_task(run)
                except RuntimeError as exc:
                    state["failure"] = exc
                    return
                state["outstanding"] += 1
                future.add_done_callback(
                    lambda fut, stage=stage, index=parent_index:
                        events.put((stage, index, fut)))

        def absorb(stage, index, future):
            try:
                output = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised
                if state["failure"] is None:
                    state["failure"] = exc
                return
            if state["failure"] is not None:
                return
            stage.outputs[index] = output
            stage.done += 1
            if stage.done == stage.num_tasks:
                stage.node.commit_shuffle(stage.which, stage.outputs,
                                          stage.span, stage.start_s)
                tracer.finish(stage.span)
                stage.span = None
                stage.lock.release()
                stage.lock = None
                stage_done(stage, launched=True)

        pool.begin_job()
        try:
            for stage in stages:
                if stage.pending == 0 and stage.state == "waiting":
                    mark_ready(stage)
            while remaining:
                if state["failure"] is not None \
                        and state["outstanding"] == 0:
                    break
                if state["outstanding"] == 0 and not foreign:
                    raise EngineError(
                        f"pipelined scheduler stalled: {len(remaining)} "
                        "stage(s) unfinished with no tasks in flight")
                try:
                    event = events.get(
                        timeout=0.002 if foreign else None)
                except queue.Empty:
                    event = None
                if event is not None:
                    state["outstanding"] -= 1
                    absorb(*event)
                if foreign and state["failure"] is None:
                    retry, foreign = foreign, []
                    for stage in retry:
                        if stage.state == "ready":
                            try_launch(stage)
        finally:
            pool.end_job()
            for stage in stages:
                # failure path: close abandoned spans, release held
                # locks without committing (a later job redoes the
                # stage), and zero the stage gauges
                if stage.span is not None:
                    tracer.finish(stage.span)
                    stage.span = None
                if stage.lock is not None:
                    stage.lock.release()
                    stage.lock = None
                if stage.gauge is not None:
                    pool.stage_finished(
                        launched=stage.gauge == "inflight")
                    stage.gauge = None
        failure = state["failure"]
        if failure is not None:
            if isinstance(failure, CancelledError):
                raise RuntimeError(
                    "executor pool was shut down mid-job; queued "
                    "shuffle map tasks were cancelled") from failure
            raise failure

    def _run_tasks(self, rdd: RDD, indices, partition_func, pool,
                   stage_span=None) -> list:
        def run_one(index):
            return self._run_task(rdd, index, partition_func, stage_span)

        indices = list(indices)
        if pool is not None and len(indices) > 1:
            return pool.map_tasks(run_one, indices)
        return [run_one(index) for index in indices]

    def _run_task(self, rdd: RDD, index: int, partition_func,
                  stage_span=None):
        runner = self.context.process_runner
        # the stage span is the *explicit* parent: under threading this
        # runs on an executor thread whose span stack is empty
        with self.context.tracer.span("task", "task", parent=stage_span,
                                      partition=index) as span:
            if runner is not None:
                def attempt():
                    return runner.run_result(rdd, index,
                                             partition_func, span)
            else:
                def attempt():
                    return partition_func(rdd.iterator(index))
            result = run_task_with_retries(self.context, index, attempt)
            result_bytes = estimate_size(result)
            span.set(result_bytes=result_bytes)
        self.context.metrics.add(result_bytes=result_bytes)
        return result

    def materialize_partitions(self, rdd: RDD) -> list:
        """Every partition of ``rdd``, computed stage-by-stage.

        Used by :meth:`RDD.checkpoint`: pending shuffles materialize
        first (in parallel under threading), then the partitions
        themselves. No job/stage/task counters move — checkpointing is
        metered as disk I/O by the caller, exactly as before — but the
        write is timed as a stage.
        """
        pool = self._pool()
        tracer = self.context.tracer
        runner = self.context.process_runner
        self._run_stage_graph(rdd, pool, None)
        start = time.perf_counter()
        with tracer.span(rdd.name, "checkpoint",
                         num_tasks=rdd.num_partitions) as ckpt_span:
            def compute_one(index):
                with tracer.span("task", "task", parent=ckpt_span,
                                 partition=index) as task_span:
                    if runner is not None:
                        data_part = runner.run_compute(rdd, index,
                                                       task_span)
                    else:
                        data_part = list(rdd.compute(index))
                    if tracer.enabled:
                        task_span.set(
                            bytes=estimate_partition_size(data_part))
                    return data_part

            indices = list(range(rdd.num_partitions))
            if pool is not None and len(indices) > 1:
                data = pool.map_tasks(compute_one, indices)
            else:
                data = [compute_one(index) for index in indices]
        self.context.metrics.record_stage_timing(
            rdd.name, "checkpoint", time.perf_counter() - start,
            rdd.num_partitions)
        return data
