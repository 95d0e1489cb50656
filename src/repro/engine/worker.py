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
   a shuffle map task writes all its non-empty buckets into one
   shared-memory segment before the reply, so bucket payloads never
   ride the result pipe: replies and reduce payloads carry refs;
3. the reply carries the result plus everything the driver must merge
   back: metric counter deltas, spans (stage and task wall times are
   read off them), cache contributions (blocks the task computed for
   persisted RDDs), and the names of segments it created (adopted
   into the driver's registry, which owns their lifecycle from then
   on).

Each worker is forked eagerly, from the thread that creates the pool,
and owns one duplex pipe; a dispatcher takes an idle worker and makes
the round trip on its pipe. A worker killed mid-task is replaced alone
(``worker_respawns``) and the driver-side retry re-runs the task.
Shutdown sends each worker an empty stop message.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import queue
import threading

from repro.engine import shm as shm_mod
from repro.engine import spill as spill_mod
from repro.engine.batches import RecordBatch, canonical_values
from repro.engine.closure import task_dumps, task_loads
from repro.engine.metrics import COUNTER_FIELDS, MetricsRegistry
from repro.engine.lineage import collect_rdds
from repro.engine.rdd import LineageStub, ResultTask, ShuffleMapTask
from repro.engine.scheduler import StageScheduler
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
        # scheduler's loop (``parallel`` is False: no executor pool)
        self.scheduler = StageScheduler(self)


# ----------------------------------------------------------------------
# lineage binding (worker side)
# ----------------------------------------------------------------------

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
    for node in collect_rdds(*roots):
        node.context = context
        for value in node.__dict__.values():
            _bind_value(value, context)


# ----------------------------------------------------------------------
# the worker entry point
# ----------------------------------------------------------------------

def _export_map_output(out, prefix, metrics, created):
    """Move a map task's non-empty buckets into one shared-memory segment.

    Each is replaced by a :class:`~repro.engine.shm.ShmRef` locator:
    packed ``RecordBatch`` buckets load zero-copy and read-only,
    ``(key, value)`` lists as writable copies, as the pipe gave them. On
    any shm failure the original buckets ship inline — correctness
    never depends on the segment."""
    buckets, num_records, total_bytes, stats = out
    exportable = [i for i, bucket in enumerate(buckets) if len(bucket)]
    if not exportable:
        return out
    try:
        builder = shm_mod.SegmentBuilder()
        for i in exportable:
            builder.add(buckets[i],
                        writable=not isinstance(buckets[i], RecordBatch))
        name, nbytes, refs = shm_mod.write_segment(
            prefix, builder, metrics)
    except Exception:
        return out
    created.append((name, nbytes))
    shipped = list(buckets)
    for i, ref in zip(exportable, refs):
        shipped[i] = ref
    return shipped, num_records, total_bytes, stats


def _worker_entry(payload: bytes):
    """Run one task in a worker process; returns the pickled reply and
    the driver registry's release count the payload carried (None if
    it did not decode)."""
    metrics = MetricsRegistry()
    tracer = Tracer(enabled=False)
    cache = TaskBlockCache(metrics, {})
    created = []
    releases = None
    try:
        data = task_loads(payload)
        releases = data["releases"]
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
    return _dump_reply(reply), releases


def _dump_reply(reply: dict) -> bytes:
    """``reply`` pickled, or as an error reply if it does not pickle."""
    try:
        return pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        reply.update(ok=False, result=None, contributions=[],
                     error=RuntimeError(
                         f"task reply failed to serialize: {exc!r}"))
    try:
        return pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        reply.update(counters={}, spans=[],
                     error=RuntimeError("task reply failed to serialize"))
        return pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# the worker pool and the driver-side runner
# ----------------------------------------------------------------------

def _serve(conn) -> None:
    """A worker's loop: payload in, reply out, until the stop message.

    Once a task's views are gone, and before its reply, a worker whose
    driver has released segments since its last look unmaps those the
    driver unlinked (:func:`~repro.engine.shm.release_unlinked`): when
    a job returns, no worker that served it maps a segment released
    before the job's tasks were sent."""
    seen = 0
    try:
        while payload := conn.recv_bytes():
            reply, releases = _worker_entry(payload)
            if releases not in (None, seen):
                seen = releases
                shm_mod.release_unlinked()
            conn.send_bytes(reply)
    except EOFError:  # the driver is gone
        pass


_MP = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")
_FORK_LOCK = threading.Lock()


def _fork():
    """One worker and the driver end of its pipe. Forks are serialized,
    each closing the child end before the next, so a dead worker always
    reads as EOF. Later forks inherit earlier *driver* ends, so closing
    one is no EOF to its worker: shutdown sends the stop message."""
    with _FORK_LOCK:
        driver_end, worker_end = _MP.Pipe()
        process = _MP.Process(target=_serve, args=(worker_end,),
                              daemon=True)
        process.start()
        worker_end.close()
    return process, driver_end


class ProcessWorkerPool:
    """A persistent set of forked workers, one duplex pipe each."""

    def __init__(self, num_workers: int):
        self.num_workers = num_workers
        self._lock = threading.Lock()
        self._workers = None  # slot -> (process, driver end)
        self._idle = None     # slots free for a round trip
        self._start()

    def _start(self):
        if self._workers is None:
            self._workers = [_fork() for _ in range(self.num_workers)]
            self._idle = queue.SimpleQueue()
            for slot in range(self.num_workers):
                self._idle.put(slot)
        return self._workers, self._idle

    def run(self, payload: bytes, metrics) -> bytes:
        with self._lock:
            workers, idle = self._start()
        slot = idle.get()
        if slot is None:  # shut down while waiting for a slot
            idle.put(None)
            raise RuntimeError(
                "process pool shut down while the job was running")
        process, conn = workers[slot]
        try:
            conn.send_bytes(payload)
            return conn.recv_bytes()
        except BaseException as exc:
            # a trip cut short leaves the pipe mid-message: whatever the
            # cause, this worker alone is replaced (unless shut down)
            with self._lock:
                if self._workers is workers:
                    workers[slot] = _fork()
                    metrics.add(worker_respawns=1)
            process.kill()
            process.join()
            conn.close()
            if isinstance(exc, (EOFError, OSError)):
                raise WorkerCrashed("worker process died executing a "
                                    "task; it was replaced") from exc
            raise
        finally:
            idle.put(slot)

    def shutdown(self) -> None:
        with self._lock:
            workers, idle = self._workers, self._idle
            self._workers = self._idle = None
        if workers is None:
            return
        for _ in workers:  # taking every slot waits out trips in flight
            process, conn = workers[idle.get()]
            with contextlib.suppress(OSError):  # dead, not replaced
                conn.send_bytes(b"")
            process.join()
            conn.close()
        idle.put(None)  # wakes callers still waiting for a slot


class ProcessTaskRunner:
    """Driver-side half of the protocol: payloads out, replies merged.

    Owned by a ``backend="process"`` context;
    :func:`~repro.engine.rdd.run_task` calls :meth:`run` from inside its
    retry/span scaffolding.
    """

    def __init__(self, context):
        self.context = context
        self.pool = ProcessWorkerPool(context.num_executors)

    def shutdown(self) -> None:
        self.pool.shutdown()

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
            "releases": context.shm_registry.releases,
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
                     for node in collect_rdds(*task.roots())}
            for rdd_id, index, data, allow_spill in contributions:
                context.cache.put(rdd_id, index, canonical_values(data),
                                  allow_spill=allow_spill)
                node = nodes.get(rdd_id)
                if node is not None:
                    node._cached_indices.add(index)

    def run(self, task, parent_span=None):
        """One round trip of ``task`` (a result or shuffle map task)."""
        payload = self._build_payload(task)
        self.context.metrics.add(task_payload_bytes=len(payload))
        reply = pickle.loads(self.pool.run(payload, self.context.metrics))
        self._absorb(task, reply, parent_span)
        if not reply["ok"]:
            raise reply["error"]
        if isinstance(task, ResultTask):
            # a reply's arrays decode with dtypes equal to, but not,
            # numpy's singletons; re-interned, a collected result
            # pickles as the serial backend's does
            return canonical_values(reply["result"])
        return reply["result"]
