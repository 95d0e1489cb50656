"""The process execution backend: forked workers, per-task protocol.

The scheduler keeps its thread pool as a *dispatcher* layer — one
thread per in-flight task — and, when ``backend="process"`` is on,
each dispatcher sends the innermost task body to a forked worker
process instead of running it inline. Everything around the body
(retries, task/stage counters, span lifetimes, result-size metering)
stays on the driver, which is what keeps the serial == thread ==
process byte-identity contract cheap to hold.

One round trip:

1. the driver builds a payload — the task (its RDD lineage sliced to
   the partitions it reads and serialized by
   :mod:`repro.engine.closure`), the tracing flag, and a handle map for
   the cached/spilled blocks it reads (shared-memory refs, spill-file
   paths, or inline values — :mod:`repro.engine.shm`);
2. :func:`_worker_entry` rebuilds the task over a
   :class:`WorkerContext` (fresh metrics, fresh tracer, a
   :class:`TaskBlockCache` seeded from the handles) and runs it;
   shuffle map output is exported to a shared-memory segment before
   the reply, so bucket payloads never ride the result pipe;
3. the reply carries the result plus everything the driver must merge
   back: metric counter deltas, spans, stage timings, cache
   contributions (blocks the task computed for persisted RDDs), and
   the names of segments it created (adopted into the driver's
   registry, which owns their lifecycle from then on).

Workers are forked **eagerly** — all of them, from the thread that
creates the pool — because forking lazily from dispatcher threads
risks cloning a lock mid-acquisition. A worker killed mid-task breaks
the pool; the pool is respawned (``worker_respawns`` counter) and the
driver-side retry loop re-runs the task.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time

from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.engine import shm as shm_mod
from repro.engine import spill as spill_mod
from repro.engine.batches import RecordBatch, canonical_values
from repro.engine.closure import task_dumps, task_loads
from repro.engine.metrics import COUNTER_FIELDS, MetricsRegistry
from repro.engine.rdd import LineageStub
from repro.engine.scheduler import ExecutorPool, StageScheduler
from repro.engine.storage import StorageLevel
from repro.engine.tracing import Tracer


class WorkerCrashed(Exception):
    """A worker process died mid-task; the task is retryable."""


# ----------------------------------------------------------------------
# worker-side context
# ----------------------------------------------------------------------

class TaskBlockCache:
    """The block cache a single task sees inside a worker.

    Seeded from the handle map the driver shipped; blocks the task
    computes for persisted RDDs are recorded as *contributions* and
    adopted into the driver cache when the reply lands. Metering
    mirrors :class:`~repro.engine.storage.CacheManager` exactly: a
    resident (shm/inline) block counts a hit per access, a spilled
    block counts hit + reload + its encoded bytes as disk reads on
    every access, and ``peek`` is silent.
    """

    def __init__(self, metrics, handles):
        self._metrics = metrics
        self._handles = dict(handles)
        self._local = {}
        self.contributions = []

    def _load(self, key, handle):
        if isinstance(handle, shm_mod.SpillFileHandle):
            # decoded fresh per access, like the driver's spill tier
            with open(handle.path, "rb") as fh:
                return spill_mod.decode_block(fh.read())
        if isinstance(handle, shm_mod.InlineBlockHandle):
            data = handle.records
        else:
            data = shm_mod.load_ref(handle, self._metrics)
        self._local[key] = data
        del self._handles[key]
        return data

    def get(self, rdd_id: int, partition_index: int):
        key = (rdd_id, partition_index)
        if key in self._local:
            self._metrics.add(cache_hits=1)
            return True, self._local[key]
        handle = self._handles.get(key)
        if handle is not None:
            self._metrics.add(cache_hits=1)
            if isinstance(handle, shm_mod.SpillFileHandle):
                self._metrics.add(cache_reloads=1,
                                  disk_read_bytes=handle.nbytes)
            return True, self._load(key, handle)
        self._metrics.add(cache_misses=1)
        return False, None

    def peek(self, rdd_id: int, partition_index: int):
        key = (rdd_id, partition_index)
        if key in self._local:
            return True, self._local[key]
        handle = self._handles.get(key)
        if handle is not None:
            return True, self._load(key, handle)
        return False, None

    def put(self, rdd_id: int, partition_index: int, data,
            allow_spill: bool = True) -> None:
        self._local[(rdd_id, partition_index)] = data
        self.contributions.append(
            (rdd_id, partition_index, data, allow_spill))

    def drop_partition(self, rdd_id: int, partition_index: int) -> bool:
        key = (rdd_id, partition_index)
        dropped = self._local.pop(key, None) is not None
        return (self._handles.pop(key, None) is not None) or dropped

    def drop_rdd(self, rdd_id: int) -> int:
        keys = [k for k in list(self._local) if k[0] == rdd_id]
        keys += [k for k in list(self._handles) if k[0] == rdd_id]
        for key in keys:
            self._local.pop(key, None)
            self._handles.pop(key, None)
        return len(set(keys))


class WorkerContext:
    """A per-task stand-in for :class:`ClusterContext` in a worker."""

    backend = "process"
    use_threads = False
    parallel = False
    process_runner = None
    num_executors = 1
    task_retries = 0

    def __init__(self, metrics, tracer, cache):
        self.metrics = metrics
        self.tracer = tracer
        self.cache = cache
        # a lazy fetch_buckets miss runs its stage inline through the
        # scheduler's loop; this pool never starts, only its gauges move
        self.executor_pool = ExecutorPool(1)
        self.scheduler = StageScheduler(self)


# ----------------------------------------------------------------------
# tasks
# ----------------------------------------------------------------------

class ResultTask:
    """One result-stage task: ``partition_func(rdd.iterator(index))``.

    Every task class answers ``reads() -> (pinned, reads)``: ``pinned``
    lists the roots the body uses directly (so they never ship as
    stubs), and ``reads`` lists the ``(rdd, index)`` partitions the body
    reads through ``iterator``.
    """

    __slots__ = ("rdd", "index", "partition_func")

    def __init__(self, rdd, index, partition_func):
        self.rdd = rdd
        self.index = index
        self.partition_func = partition_func

    def roots(self):
        return (self.rdd,)

    def reads(self):
        return (), [(self.rdd, self.index)]

    def run(self):
        return self.partition_func(self.rdd.iterator(self.index))


class ShuffleMapTask:
    """One shuffle map task; ``which`` selects the wide parent slot."""

    __slots__ = ("rdd", "which", "parent_index")

    def __init__(self, rdd, which, parent_index):
        self.rdd = rdd
        self.which = which
        self.parent_index = parent_index

    def roots(self):
        return (self.rdd,)

    def reads(self):
        parent = self.rdd.dependencies[self.which]
        return (self.rdd,), [(parent, self.parent_index)]

    def run(self):
        return self.rdd._map_task(self.which, self.parent_index)


# ----------------------------------------------------------------------
# lineage binding (worker side)
# ----------------------------------------------------------------------

def lineage_nodes(roots) -> list:
    """Every RDD reachable from ``roots`` through dependencies."""
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node.dependencies)
    return list(seen.values())


def _blank(cls):
    """An uninitialized ``cls``; unpickling then sets its state."""
    return cls.__new__(cls)


def _bind_value(value, context, depth: int = 0) -> None:
    if value is None or depth > 8:
        return
    hook = getattr(value, "bind_engine_context", None)
    if callable(hook):
        hook(context)
        return
    inner = getattr(value, "func", None)
    if inner is not None:
        _bind_value(inner, context, depth + 1)


def bind_lineage(roots, context) -> None:
    """Point every unpickled RDD (and context-bound callables hiding
    in their wrapped functions) at ``context``."""
    for node in lineage_nodes(roots):
        node.context = context
        for value in node.__dict__.values():
            _bind_value(value, context)


# ----------------------------------------------------------------------
# the worker entry point
# ----------------------------------------------------------------------

def _export_map_output(out, prefix, metrics, created):
    """Move packed shuffle buckets into one shared-memory segment.

    Tuple-list fallback buckets (and empty ones) stay inline; packed
    ``RecordBatch`` buckets are replaced by
    :class:`~repro.engine.shm.ShmRef` locators. On any shm failure the
    original buckets ship inline — correctness never depends on the
    segment."""
    buckets, num_records, total_bytes, stats = out
    exportable = [i for i, bucket in enumerate(buckets)
                  if isinstance(bucket, RecordBatch)]
    if not exportable:
        return out
    try:
        builder = shm_mod.SegmentBuilder()
        for i in exportable:
            builder.add(buckets[i])
        name, nbytes, refs = shm_mod.write_segment(
            prefix, builder, metrics)
    except Exception:
        return out
    created.append((name, nbytes))
    shipped = list(buckets)
    for i, ref in zip(exportable, refs):
        shipped[i] = ref
    return shipped, num_records, total_bytes, stats


def _warmup() -> None:
    # long enough that rapid-fire warmup submits each fork a fresh
    # worker instead of reusing an idle one
    time.sleep(0.05)


def _worker_entry(payload: bytes) -> bytes:
    """Run one task in a worker process; returns the pickled reply."""
    metrics = MetricsRegistry()
    tracer = Tracer(enabled=False)
    cache = TaskBlockCache(metrics, {})
    created = []
    try:
        data = task_loads(payload)
        tracer = Tracer(enabled=data["trace"])
        cache = TaskBlockCache(metrics, data["blocks"])
        context = WorkerContext(metrics, tracer, cache)
        task = data["task"]
        bind_lineage(task.roots(), context)
        result = task.run()
        if isinstance(task, ShuffleMapTask):
            result = _export_map_output(result, data["prefix"],
                                        metrics, created)
        reply = {"ok": True, "result": result}
    except BaseException as exc:  # noqa: BLE001 - re-raised driver-side
        reply = {"ok": False, "error": exc}
    # which process served this task (a traced driver names it on the
    # task span; rides even on the error path)
    reply["pid"] = os.getpid()
    snapshot = metrics.snapshot().as_dict()
    reply["counters"] = {name: value for name, value in snapshot.items()
                         if value}
    reply["spans"] = ([span.as_dict() for span in tracer.spans()]
                      if tracer.enabled else [])
    reply["contributions"] = cache.contributions
    reply["segments"] = created
    try:
        return pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        fallback = dict(reply, ok=False, result=None, contributions=[],
                        error=RuntimeError(
                            f"task reply failed to serialize: {exc!r}"))
        try:
            return pickle.dumps(fallback,
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            minimal = {"ok": False, "pid": reply["pid"], "result": None,
                       "counters": {},
                       "spans": [], "contributions": [],
                       "segments": created,
                       "error": RuntimeError(
                           "task reply failed to serialize")}
            return pickle.dumps(minimal,
                                protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# the worker pool and the driver-side runner
# ----------------------------------------------------------------------

class ProcessWorkerPool:
    """A persistent pool of forked worker processes.

    All workers fork eagerly at creation (from the creating thread —
    never from a dispatcher). A crashed worker breaks the executor;
    the pool drops it, counts a respawn, and recreates lazily on the
    next task so the driver-side retry succeeds.
    """

    def __init__(self, num_workers: int):
        self.num_workers = num_workers
        self._executor = None
        self._lock = threading.Lock()

    @property
    def started(self) -> bool:
        return self._executor is not None

    def _spawn(self) -> ProcessPoolExecutor:
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else "spawn"
        executor = ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=multiprocessing.get_context(method))
        # force every worker to fork NOW: each submit spawns a fresh
        # process while none is idle, and the sleeps keep them busy
        for future in [executor.submit(_warmup)
                       for _ in range(self.num_workers)]:
            future.result()
        return executor

    def ensure_started(self) -> None:
        with self._lock:
            if self._executor is None:
                self._executor = self._spawn()

    def run(self, payload: bytes, metrics=None) -> bytes:
        with self._lock:
            if self._executor is None:
                self._executor = self._spawn()
            executor = self._executor
        try:
            return executor.submit(_worker_entry, payload).result()
        except BrokenProcessPool as exc:
            with self._lock:
                first = self._executor is executor
                if first:
                    self._executor = None
            if first:
                executor.shutdown(wait=False)
                if metrics is not None:
                    metrics.add(worker_respawns=1)
            raise WorkerCrashed(
                "worker process died executing a task; "
                "the pool will respawn") from exc

    def shutdown(self) -> None:
        with self._lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


class ProcessTaskRunner:
    """Driver-side half of the protocol: payloads out, replies merged.

    Owned by a ``backend="process"`` context; dispatcher threads call
    the ``run_*`` helpers from inside the existing retry/span scaffolding.
    """

    def __init__(self, context):
        self.context = context
        self.pool = ProcessWorkerPool(context.num_executors)

    def ensure_started(self) -> None:
        self.pool.ensure_started()

    def shutdown(self) -> None:
        self.pool.shutdown()

    # -- task entry points ------------------------------------------------

    def run_result(self, rdd, index, partition_func, parent_span=None):
        # a reply's arrays decode with dtypes equal to, but not, numpy's
        # singletons; re-interned, a collected result pickles as the
        # serial backend's does
        return canonical_values(self._run(
            ResultTask(rdd, index, partition_func), parent_span))

    def run_shuffle_map(self, rdd, which, parent_index,
                        parent_span=None):
        return self._run(ShuffleMapTask(rdd, which, parent_index),
                         parent_span)

    # -- protocol ---------------------------------------------------------

    def _build_payload(self, task) -> bytes:
        """Pickle ``task`` sliced to the partitions it reads.

        Walks the task's reads through :meth:`RDD.parent_partitions`,
        stopping at cached partitions, whose block handles ship
        instead. A walked node pickles with only the partitions it
        serves (``_sliced_state``); one the task reads only through
        handles, or not at all, ships as a :class:`LineageStub`. The slicing happens in the pickler,
        never on the RDDs: dispatcher threads pickle one lineage
        concurrently.
        """
        context = self.context
        pinned, stack = task.reads()
        needed = {id(node): (node, set()) for node in pinned}
        blocks = {}
        entries = {}
        while stack:
            node, index = stack.pop()
            indices = needed.setdefault(id(node), (node, set()))[1]
            if index in indices:
                continue
            indices.add(index)
            if node.storage_level is not StorageLevel.NONE:
                if node.rdd_id not in entries:
                    entries[node.rdd_id] = context.cache.export_entries(
                        node.rdd_id)
                entry = entries[node.rdd_id].get(index)
                if entry is not None:
                    key = (node.rdd_id, index)
                    if entry[0] == "memory":
                        _kind, data, size = entry
                        blocks[key] = context.shm_registry.export_block(
                            key, data, size)
                    else:
                        _kind, path, nbytes = entry
                        blocks[key] = shm_mod.SpillFileHandle(path, nbytes)
                    continue
            stack.extend(node.parent_partitions(index))
        overrides = {}
        for key, (node, indices) in needed.items():
            computed = {index for index in indices
                        if (node.rdd_id, index) not in blocks}
            if node not in pinned and not computed:
                overrides[key] = (_blank, (LineageStub,),
                                  node._stub_state())
                continue
            overrides[key] = (_blank, (type(node),),
                              node._sliced_state(computed))
            for dep in node.dependencies:
                if id(dep) not in needed:
                    overrides[id(dep)] = (_blank, (LineageStub,),
                                          dep._stub_state())
        return task_dumps({
            "task": task,
            "trace": context.tracer.enabled,
            "blocks": blocks,
            "prefix": context.shm_registry.prefix,
        }, overrides)

    def _absorb(self, task, reply, parent_span) -> None:
        context = self.context
        if context.tracer.enabled:
            parent_span.set(worker=reply["pid"])
        # only the catalog's counters are applied: a reply from another
        # build cannot corrupt the registry
        context.metrics.add(**{
            name: value for name, value in reply.get("counters", {}).items()
            if value and name in COUNTER_FIELDS})
        spans = reply.get("spans")
        if spans and context.tracer.enabled:
            context.tracer.adopt_spans(spans, parent=parent_span)
        for name, nbytes in reply.get("segments", ()):
            context.shm_registry.adopt(name, nbytes)
        contributions = reply.get("contributions")
        if contributions:
            nodes = {node.rdd_id: node
                     for node in lineage_nodes(task.roots())}
            for rdd_id, index, data, allow_spill in contributions:
                context.cache.put(rdd_id, index, canonical_values(data),
                                  allow_spill=allow_spill)
                node = nodes.get(rdd_id)
                if node is not None:
                    node._cached_indices.add(index)

    def _run(self, task, parent_span):
        payload = self._build_payload(task)
        self.context.metrics.add(task_payload_bytes=len(payload))
        try:
            reply_bytes = self.pool.run(payload, self.context.metrics)
        except CancelledError:
            raise RuntimeError(
                "process pool shut down while the job was running"
            ) from None
        reply = pickle.loads(reply_bytes)
        self._absorb(task, reply, parent_span)
        if not reply["ok"]:
            raise reply["error"]
        return reply["result"]
