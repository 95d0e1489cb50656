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
  stages), and runs it.

Every stage runs through one event-driven loop: each shuffle map
stage and the job's result stage (the graph's last node). A stage
launches the moment its last input stage commits. With a pool, a
launch submits the stage's tasks at once
and per-stage completion counts track each output as it lands, so the
two sides of a join/cogroup/matmul overlap. On a serial context, and
for a nested job inside an executor thread, the same loop runs each
task inline as its stage launches — no future, queue or thread — so
stages run one at a time in graph order. A lazy
:meth:`~repro.engine.rdd._ShuffleStageBase.fetch_buckets` miss runs
its one stage through the same loop.

Determinism contract: serial (``use_threads=False``, the default),
threaded and process execution produce byte-identical results and
identical logical metrics (jobs, stages, tasks, shuffle records/bytes).
Only wall-clock observations (stage timings, task-time histograms,
span timestamps) differ. Shuffle buckets are merged in
parent-partition order and result rows are collected in partition
order regardless of which executor finished first; a shuffle stage
holds its per-``(rdd, which)`` materialize lock from launch to commit
so map tasks never double-run.
"""

from __future__ import annotations

import functools
import heapq
import queue
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor

from repro.engine.rdd import RDD, run_task_with_retries
from repro.engine.sizing import estimate_size
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

    def begin_job(self) -> None:
        """Mark a job active.

        Pairs with :meth:`end_job`; while active, :meth:`shutdown`
        marks the pool broken and cancels queued tasks.
        """
        self._ensure()
        with self._lock:
            self._active += 1

    def end_job(self) -> None:
        with self._lock:
            self._active -= 1

    def submit_task(self, func):
        """Submit one task; returns its ``Future``.

        The pool's one task entry point. The caller owns completion
        handling — nothing here waits.
        """
        executor = self._ensure()
        try:
            return executor.submit(func)
        except RuntimeError as exc:
            # the executor was shut down between _ensure and submit
            raise RuntimeError(
                "executor pool was shut down while a job was "
                "running; its tasks cannot be scheduled") from exc

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
    """One node of a job's stage graph.

    ``kind`` is ``"shuffle"`` for a pending shuffle map stage — one map
    task per partition of parent ``which`` of ``node`` — or
    ``"result"`` for the graph's last node, a job's result stage: one
    ``task(index, span)`` per partition of ``node``. ``pending`` counts
    unfinished dependency stages; the loop launches the stage when it
    reaches zero, and ``done`` counts task outputs until the last one
    lands.
    """

    __slots__ = ("node", "which", "kind", "key", "label", "num_tasks",
                 "task", "deps", "children", "pending", "done",
                 "outputs", "span", "lock", "ready_s", "position")

    def __init__(self, node, which=None, kind="shuffle", task=None):
        self.node = node
        self.which = which
        self.kind = kind
        self.key = (node.rdd_id, which)
        if kind == "shuffle":
            self.label = node.shuffle_label(which)
            self.num_tasks = node.dependencies[which].num_partitions
            self.task = functools.partial(node.run_shuffle_map_task, which)
        else:
            self.label = node.name
            self.num_tasks = node.num_partitions
            self.task = task
        self.deps = []
        self.children = []
        self.pending = 0
        self.done = 0
        self.outputs = None
        self.span = None
        self.lock = None
        self.ready_s = 0.0
        self.position = 0

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
        map output, and subtrees hidden behind a fully cached RDD
        (whose partitions will be served from the block cache without
        recomputation) are all skipped, so eager scheduling records
        exactly the stages lazy evaluation would.
        """
        ordered = []
        seen = set()

        def visit(node: RDD) -> None:
            if node.rdd_id in seen:
                return
            seen.add(node.rdd_id)
            if self._fully_cached(node):
                return
            for dep in node.dependencies:
                visit(dep)
            for which in node.wide_slots():
                if not node.shuffle_ready(which):
                    ordered.append((node, which))

        visit(rdd)
        del visit    # a recursive closure is a cycle holding the lineage
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
        so every run stamps identical ``depends_on`` span attributes
        whatever order its stages finish in.
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

        Mirrors :meth:`shuffle_stages`'s descent rules (fully cached
        subtrees are opaque; narrow and materialized shuffles are
        transparent) but stops at each pending stage: what lies beneath
        one is *its* dependency, not the caller's.
        """
        deps = []
        found = set()
        seen = set()

        def visit(node: RDD) -> None:
            if node.rdd_id in seen:
                return
            seen.add(node.rdd_id)
            if self._fully_cached(node):
                return
            for which, parent in enumerate(node.dependencies):
                stage = by_key.get((node.rdd_id, which))
                if stage is None:
                    visit(parent)
                elif stage.key not in found:
                    found.add(stage.key)
                    deps.append(stage)

        visit(root)
        del visit
        return deps


    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run_job(self, rdd: RDD, partition_func) -> list:
        """One job: the pending shuffle map stages beneath ``rdd``, then
        the result stage, through :meth:`_run_graph`. Records one job,
        one result stage and one task per result partition; shuffle map
        stages record themselves as they launch."""
        self.context.metrics.add(jobs_run=1)
        final = _Stage(rdd, kind="result", task=functools.partial(
            self._result_task, rdd, partition_func))
        with self.context.tracer.span(
                rdd.name, "job", executors=self.context.num_executors,
                partitions=rdd.num_partitions) as job_span:
            return self._run_graph(self._graph_to(rdd, final), job_span)

    def run_stage(self, node: RDD, which: int) -> None:
        """Materialize one shuffle map stage on demand: a lazy
        ``fetch_buckets`` miss (a partition computed outside a job, or
        map output lost after its job was planned)."""
        self._run_graph([_Stage(node, which)])

    def _graph_to(self, rdd: RDD, final: _Stage) -> list:
        """:meth:`stage_graph` of ``rdd`` with ``final`` appended as the
        last node, gated on the result stage's dependencies."""
        stages, result_deps = self.stage_graph(rdd)
        final.deps = result_deps
        final.pending = len(result_deps)
        for dep in result_deps:
            dep.children.append(final)
        return stages + [final]

    def _start_span(self, stage: _Stage, parent_span):
        attrs = {"num_tasks": stage.num_tasks, "ready_at": stage.ready_s,
                 "launched_at": time.perf_counter(),
                 "depends_on": stage.depends_on()}
        tracer = self.context.tracer
        if stage.kind == "result":
            return tracer.start(stage.label, "stage", parent=parent_span,
                                detached=True, stage_kind="result", **attrs)
        return tracer.start(stage.label, "shuffle", parent=parent_span,
                            detached=True, **attrs)

    def _run_graph(self, nodes: list, parent_span=None):
        """The one stage loop; returns the last node's task outputs in
        partition order when it is a result stage.

        ``nodes`` is parents-first. Every stage whose dependencies are
        satisfied launches, the lowest position first; a shuffle stage
        holds its per-``(rdd, which)`` materialize lock from launch to
        commit. With a pool, a launch submits the stage's tasks and the
        driver thread absorbs completions from a queue fed by future
        done-callbacks, so independent stages overlap. Without one (a
        serial context, or a nested job on an executor thread) a launch
        runs its tasks inline, so stages run one at a time in position
        order. A stage whose lock another driver job holds is polled
        until that job commits, then adopted as finished. The first
        task failure stops new launches, drains in-flight tasks (no task
        outlives its job), and surfaces as one diagnostic.
        """
        context = self.context
        tracer = context.tracer
        metrics = context.metrics
        inline = not context.parallel or context.executor_pool.in_worker()
        pool = None if inline else context.executor_pool
        events = queue.SimpleQueue()
        ready = []  # heap of (position, stage)
        foreign = []
        remaining = len(nodes)
        outstanding = 0
        failure = None

        def mark_ready(stage):
            stage.ready_s = time.perf_counter()
            heapq.heappush(ready, (stage.position, stage))

        def finish(stage):
            nonlocal remaining
            remaining -= 1
            for child in stage.children:
                child.pending -= 1
                if child.pending == 0:
                    mark_ready(child)

        def try_launch(stage):
            lock = None
            if stage.kind == "shuffle":
                lock = stage.node._materialize_lock(stage.which)
                if not lock.acquire(blocking=False):
                    # a concurrent driver job is materializing this
                    # stage; poll rather than block the loop on its lock
                    foreign.append(stage)
                    return
                if stage.node.shuffle_ready(stage.which):
                    lock.release()
                    finish(stage)
                    return
            launch(stage, lock)

        def launch(stage, lock):
            nonlocal outstanding, failure
            metrics.add(stages_run=1)
            stage.lock = lock  # held from launch to commit
            stage.outputs = [None] * stage.num_tasks
            stage.span = self._start_span(stage, parent_span)
            if not stage.num_tasks:
                commit(stage)
            for index in range(stage.num_tasks):
                if inline:
                    try:
                        output = stage.task(index, stage.span)
                    except BaseException as exc:  # noqa: BLE001 - re-raised
                        failure = exc
                        return
                    land(stage, index, output)
                    continue
                try:
                    future = pool.submit_task(functools.partial(
                        stage.task, index, stage.span))
                except RuntimeError as exc:
                    failure = exc
                    return
                outstanding += 1
                future.add_done_callback(
                    lambda fut, stage=stage, index=index:
                        events.put((stage, index, fut)))

        def absorb(stage, index, future):
            nonlocal failure
            try:
                output = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised
                if failure is None:
                    failure = exc
                return
            if failure is None:
                land(stage, index, output)

        def land(stage, index, output):
            stage.outputs[index] = output
            stage.done += 1
            if stage.done == stage.num_tasks:
                commit(stage)

        def commit(stage):
            if stage.kind == "shuffle":
                stage.node.commit_shuffle(stage.which, stage.outputs,
                                          stage.span)
            tracer.finish(stage.span)
            stage.span = None
            if stage.lock is not None:
                stage.lock.release()
                stage.lock = None
            finish(stage)

        if not inline:
            pool.begin_job()
        try:
            for position, stage in enumerate(nodes):
                stage.position = position
                if stage.pending == 0:
                    mark_ready(stage)
            while True:
                while ready and failure is None:
                    try_launch(heapq.heappop(ready)[1])
                if not remaining or (failure is not None
                                     and not outstanding):
                    break
                if outstanding:
                    try:
                        event = events.get(
                            timeout=0.002 if foreign else None)
                    except queue.Empty:
                        event = None
                    if event is not None:
                        outstanding -= 1
                        absorb(*event)
                elif foreign:
                    time.sleep(0.002)
                else:
                    raise EngineError(
                        f"scheduler stalled: {remaining} stage(s) "
                        "unfinished with no tasks in flight")
                if foreign and failure is None:
                    retry, foreign = foreign, []
                    for stage in retry:
                        try_launch(stage)
        finally:
            if not inline:
                pool.end_job()
            for stage in nodes:
                # failure path: close abandoned spans and release held
                # locks without committing (a later job redoes the
                # stage)
                if stage.span is not None:
                    tracer.finish(stage.span)
                    stage.span = None
                if stage.lock is not None:
                    stage.lock.release()
                    stage.lock = None
                # unlink the graph: its stage <-> child cycles would
                # keep the lineage (and its shm segments) until a GC
                stage.deps = stage.children = ()
        if failure is not None:
            if isinstance(failure, CancelledError):
                raise RuntimeError(
                    "executor pool was shut down mid-job; queued tasks "
                    "were cancelled") from failure
            raise failure
        return nodes[-1].outputs

    def _result_task(self, rdd: RDD, partition_func, index: int,
                     stage_span):
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
