"""Resilient Distributed Datasets, in miniature.

An :class:`RDD` is a lazy, partitioned collection. Transformations build a
DAG; actions walk it. Narrow transformations (map/filter/...) pipeline
within a partition exactly like Spark; wide transformations go through
:class:`ShuffledRDD` / :class:`CoGroupedRDD`, which materialize a real
hash-bucketed shuffle with byte accounting — one shuffle stage per wide
parent slot.

Fault tolerance follows Spark's model: a partition is recomputed from its
lineage whenever it is needed and not cached. Tests inject block loss via
the cache manager and verify results are rebuilt transparently.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from functools import partial
from operator import add, itemgetter

import numpy as np

from repro.engine import batches
from repro.engine import shm as shm_mod
from repro.engine.batches import (
    RecordBatch,
    combine_column,
    concat_values,
    group_indices_by_partition,
    pack_int_keys,
    pack_values,
)
from repro.engine.partitioner import Partitioner
from repro.engine.sizing import estimate_partition_size
from repro.engine.storage import StorageLevel
from repro.errors import EngineError, TaskFailure


def run_task_with_retries(context, index, attempt_func):
    """One logical task: ``1 + task_retries`` attempts, all metered.

    Mirrors Spark's ``spark.task.maxFailures``: deterministic failures
    exhaust the attempts and surface as a :class:`TaskFailure`. Used by
    every task — shuffle map, result, and the driver's partition probe
    — so retry semantics are identical everywhere.
    """
    metrics = context.metrics
    last_error = None
    for attempt in range(1 + context.task_retries):
        metrics.add(tasks_launched=1, task_retries=int(attempt > 0))
        try:
            return attempt_func()
        except Exception as exc:  # noqa: BLE001 - retried
            last_error = exc
    raise TaskFailure(index, last_error) from last_error


# ----------------------------------------------------------------------
# task callables, importable by name (the rule in repro.engine.closure).
# Each wrapper exposes the wrapped callable as ``func`` so the worker's
# context-binding walk can reach through arbitrarily nested wrappers.
# ----------------------------------------------------------------------

class _IgnoreIndex:
    """Adapts ``func(part)`` to the ``func(index, part)`` slot."""

    __slots__ = ("func",)

    def __init__(self, func):
        self.func = func

    def __call__(self, _index, part):
        return self.func(part)


class _PerRecord:
    """``map``: apply ``func`` to every record, lazily."""

    __slots__ = ("func",)

    def __init__(self, func):
        self.func = func

    def __call__(self, part):
        func = self.func
        return (func(record) for record in part)


class _FilterRecords:
    """``filter``: keep records satisfying the predicate."""

    __slots__ = ("func",)

    def __init__(self, func):
        self.func = func

    def __call__(self, part):
        predicate = self.func
        return (record for record in part if predicate(record))


class _FlatMapRecords:
    """``flat_map``: concatenate ``func(record)`` iterables."""

    __slots__ = ("func",)

    def __init__(self, func):
        self.func = func

    def __call__(self, part):
        func = self.func
        return itertools.chain.from_iterable(
            func(record) for record in part)


class _MapValuesPart:
    """``map_values``: apply ``func`` to values, keys untouched."""

    __slots__ = ("func",)

    def __init__(self, func):
        self.func = func

    def __call__(self, part):
        func = self.func
        return ((key, func(value)) for key, value in part)


class _FlatMapValuesPart:
    """``flat_map_values``: expand each value, replicating the key."""

    __slots__ = ("func",)

    def __init__(self, func):
        self.func = func

    def __call__(self, part):
        func = self.func
        return ((key, out) for key, value in part
                for out in func(value))


def _count_records(part):
    return sum(1 for _ in part)


def _identity(value):
    return value


def _singleton_list(value):
    return [value]


def _append_value(acc, value):
    acc.append(value)
    return acc


def _extend_list(a, b):
    a.extend(b)
    return a


def _one(_value):
    return 1


def _has_key(key, kv) -> bool:
    return kv[0] == key


def _keep(parts, indices) -> dict:
    """``{index: parts[index]}`` for the partitions a task reads."""
    return {index: parts[index] for index in indices}


def _columns(part):
    """``(records, keys, values)``: a :class:`RecordBatch`'s columns, or
    a record list and its packed keys (None if they don't pack)."""
    if isinstance(part, RecordBatch):
        return None, part.keys, part.values
    records = list(part)
    return records, pack_int_keys(records), None


class RDD:
    """Base class for all RDDs.

    Subclasses implement :meth:`compute`; everything else (caching,
    lineage, the transformation/action API) lives here.
    """

    def __init__(self, context, dependencies=(), num_partitions=None,
                 partitioner=None, name=None):
        self.context = context
        self.rdd_id = context._next_rdd_id()
        self.dependencies = tuple(dependencies)
        if num_partitions is None:
            if not self.dependencies:
                raise EngineError("root RDD must declare num_partitions")
            num_partitions = self.dependencies[0].num_partitions
        self.num_partitions = num_partitions
        self.partitioner = partitioner
        self.name = name or type(self).__name__
        self.storage_level = StorageLevel.NONE
        self._cached_indices = set()
        self._compute_locks = {}
        self._compute_locks_guard = threading.Lock()
        self._mat_locks = {}
        self._mat_locks_guard = threading.Lock()

    # ------------------------------------------------------------------
    # computation and caching
    # ------------------------------------------------------------------

    def compute(self, index: int) -> list:
        """Produce partition ``index`` from parent partitions."""
        raise NotImplementedError

    def parent_partitions(self, index: int) -> list:
        """``[(parent, parent_index)]``: what partition ``index`` reads.

        The one rule a process task's payload is sliced by. The base
        answer is conservative — every partition of every dependency —
        so a subclass that does not narrow it ships all it might read.
        """
        return [(dep, i) for dep in self.dependencies
                for i in range(dep.num_partitions)]

    def iterator(self, index: int) -> list:
        """Cache-aware access to partition ``index``.

        If the RDD is persisted, serve from the block cache when possible
        and repopulate it (counting a recomputation) when the block was
        lost.
        """
        if self.storage_level is StorageLevel.NONE:
            return self.compute(index)
        cache = self.context.cache
        found, data = cache.get(self.rdd_id, index)
        if found:
            return data
        with self._partition_lock(index):
            # recheck silently: a concurrent task may have populated the
            # block while we waited; computing again here would both
            # duplicate the work and corrupt the recomputation counter
            found, data = cache.peek(self.rdd_id, index)
            if found:
                return data
            if index in self._cached_indices:
                self.context.metrics.add(recomputations=1)
            data = list(self.compute(index))
            cache.put(self.rdd_id, index, data,
                      allow_spill=self.storage_level
                      is StorageLevel.MEMORY_AND_DISK)
            self._cached_indices.add(index)
        return data

    def _partition_lock(self, index: int) -> threading.Lock:
        """The per-(rdd, partition) compute lock.

        Two tasks that miss the cache for the same block serialize here,
        so a partition is computed at most once however many concurrent
        consumers it has.
        """
        with self._compute_locks_guard:
            lock = self._compute_locks.get(index)
            if lock is None:
                lock = self._compute_locks[index] = threading.Lock()
            return lock

    def _materialize_lock(self, which: int) -> threading.Lock:
        """The per-(rdd, which) shuffle-stage materialize lock.

        Concurrent callers of one map stage — two driver jobs sharing a
        cached upstream, or a job racing a lazy ``fetch_buckets`` —
        serialize here and double-check the stored buckets, so a
        stage's map tasks run at most once. ``which`` is the wide
        parent slot; each slot gets its own lock so the two sides of a
        cogroup can materialize concurrently.
        """
        with self._mat_locks_guard:
            lock = self._mat_locks.get(which)
            if lock is None:
                lock = self._mat_locks[which] = threading.Lock()
            return lock

    # ------------------------------------------------------------------
    # process-boundary pickling
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Ship lineage across the process boundary.

        Driver-only machinery — the context, every lock and a shuffle's
        segment finalizers — stays behind; the worker rebinds a fresh
        context over the lineage walk. ``_cached_indices`` is copied
        under retry because dispatcher threads may be adding to it
        concurrently.
        """
        state = self.__dict__.copy()
        state["context"] = None
        state["_compute_locks"] = {}
        state["_compute_locks_guard"] = None
        state["_mat_locks"] = {}
        state["_mat_locks_guard"] = None
        state.pop("_releases", None)    # shm segments stay the driver's
        while True:
            try:
                state["_cached_indices"] = set(self._cached_indices)
                break
            except RuntimeError:  # pragma: no cover - concurrent add
                continue
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._compute_locks = {}
        self._compute_locks_guard = threading.Lock()
        self._mat_locks = {}
        self._mat_locks_guard = threading.Lock()

    def _sliced_state(self, indices) -> dict:
        """:meth:`__getstate__` for a task that reads partitions
        ``indices``: per-partition data ships only those, as
        ``{index: data}``."""
        return self.__getstate__()

    def _stub_state(self) -> dict:
        """The state of this node shipped as a :class:`LineageStub`:
        identity and partitioning — no dependencies, functions or
        data."""
        return {
            "context": None,
            "rdd_id": self.rdd_id,
            "name": self.name,
            "dependencies": (),
            "num_partitions": self.num_partitions,
            "partitioner": self.partitioner,
            "storage_level": self.storage_level,
            "_cached_indices": set(),
        }

    def persist(self, level: StorageLevel = StorageLevel.MEMORY) -> "RDD":
        self.storage_level = level
        return self

    def cache(self) -> "RDD":
        return self.persist(StorageLevel.MEMORY)

    def unpersist(self) -> "RDD":
        self.storage_level = StorageLevel.NONE
        self._cached_indices.clear()
        self.context.cache.drop_rdd(self.rdd_id)
        return self

    # ------------------------------------------------------------------
    # lineage
    # ------------------------------------------------------------------

    def wide_slots(self) -> tuple:
        """Indices of the parents this RDD reads through a shuffle.

        The single narrow/wide rule: every other dependency pipelines
        inside a partition. Evaluated on each call, because partitioners
        may be assigned after construction.
        """
        return ()

    # ------------------------------------------------------------------
    # narrow transformations
    # ------------------------------------------------------------------

    def map_partitions_with_index(self, func, preserves_partitioning=False):
        """``func(index, iterable) -> iterable`` applied per partition."""
        return MapPartitionsRDD(self, func,
                                preserves_partitioning=preserves_partitioning)

    def map_partitions(self, func, preserves_partitioning=False):
        return self.map_partitions_with_index(
            _IgnoreIndex(func),
            preserves_partitioning=preserves_partitioning,
        )

    def map(self, func):
        return self.map_partitions(_PerRecord(func)).rename("map")

    def filter(self, predicate):
        return self.map_partitions(
            _FilterRecords(predicate),
            preserves_partitioning=True,
        ).rename("filter")

    def flat_map(self, func):
        return self.map_partitions(
            _FlatMapRecords(func)).rename("flat_map")

    def zip_partitions(self, other: "RDD", func,
                       preserves_partitioning: bool = False) -> "RDD":
        """Pairwise-combine co-numbered partitions of two RDDs."""
        return ZippedPartitionsRDD(self, other, func,
                                   preserves_partitioning)

    def rename(self, name: str) -> "RDD":
        self.name = name
        return self

    # ------------------------------------------------------------------
    # pair-RDD transformations (delegated; defined in pairs.py)
    # ------------------------------------------------------------------

    def values(self):
        return self.map(itemgetter(1)).rename("values")

    def map_values(self, func):
        return self.map_partitions(
            _MapValuesPart(func),
            preserves_partitioning=True,
        ).rename("map_values")

    def flat_map_values(self, func):
        return self.map_partitions(
            _FlatMapValuesPart(func),
            preserves_partitioning=True,
        ).rename("flat_map_values")

    def combine_by_key(self, create_combiner, merge_value, merge_combiners,
                       partitioner=None, map_side_combine=True,
                       combine_kernel=None):
        from repro.engine.pairs import combine_by_key

        return combine_by_key(
            self, create_combiner, merge_value, merge_combiners,
            partitioner=partitioner, map_side_combine=map_side_combine,
            combine_kernel=combine_kernel,
        )

    def reduce_by_key(self, func, partitioner=None, combine_kernel=None):
        return self.combine_by_key(
            _identity, func, func, partitioner=partitioner,
            combine_kernel=combine_kernel,
        ).rename("reduce_by_key")

    def group_by_key(self, partitioner=None):
        return self.combine_by_key(
            _singleton_list, _append_value, _extend_list,
            partitioner=partitioner, map_side_combine=False,
        ).rename("group_by_key")

    def partition_by(self, partitioner: Partitioner):
        from repro.engine.pairs import partition_by

        return partition_by(self, partitioner)

    def join(self, other, partitioner=None):
        from repro.engine.pairs import join

        return join(self, other, partitioner)

    def left_outer_join(self, other, partitioner=None):
        from repro.engine.pairs import left_outer_join

        return left_outer_join(self, other, partitioner)

    def full_outer_join(self, other, partitioner=None):
        from repro.engine.pairs import full_outer_join

        return full_outer_join(self, other, partitioner)

    def cogroup(self, other, partitioner=None):
        from repro.engine.pairs import cogroup

        return cogroup([self, other], partitioner)

    def count_by_key(self) -> dict:
        return dict(
            self.map_values(_one)
            .reduce_by_key(add, combine_kernel="sum")
            .collect()
        )

    def lookup(self, key) -> list:
        """All values for ``key``; uses the partitioner when known."""
        if self.partitioner is not None:
            index = self.partitioner.partition(key)
            return [
                v for k, v in self.context.run_partition(self, index)
                if k == key
            ]
        return self.filter(partial(_has_key, key)).values().collect()

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------

    def collect(self) -> list:
        chunks = self.context.run_job(self, list)
        return [record for chunk in chunks for record in chunk]

    def count(self) -> int:
        return sum(self.context.run_job(self, _count_records))

    def fold(self, zero, func):
        parts = self.context.run_job(self, list)
        result = zero
        for part in parts:
            acc = zero
            for record in part:
                acc = func(acc, record)
            result = func(result, acc)
        return result

    def sum(self):
        return self.fold(0, add)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} id={self.rdd_id} name={self.name!r} "
            f"partitions={self.num_partitions}>"
        )


class ParallelCollectionRDD(RDD):
    """A driver-side collection sliced into partitions."""

    def __init__(self, context, data, num_partitions: int, partitioner=None):
        data = list(data)
        if partitioner is not None:
            # placement is dictated by the partitioner: the slice count
            # must match it exactly, however small the data
            num_partitions = partitioner.num_partitions
        else:
            num_partitions = max(1, min(num_partitions,
                                        max(1, len(data))))
        super().__init__(context, dependencies=(),
                         num_partitions=num_partitions,
                         partitioner=partitioner, name="parallelize")
        self._slices = [[] for _ in range(num_partitions)]
        if partitioner is not None:
            for record in data:
                self._slices[partitioner.partition(record[0])].append(record)
        else:
            # contiguous slicing, like Spark's parallelize
            base, extra = divmod(len(data), num_partitions)
            start = 0
            for i in range(num_partitions):
                size = base + (1 if i < extra else 0)
                self._slices[i] = data[start:start + size]
                start += size

    def compute(self, index: int) -> list:
        return self._slices[index]

    def _sliced_state(self, indices) -> dict:
        state = super()._sliced_state(indices)
        state["_slices"] = _keep(self._slices, indices)
        return state


class GeneratedRDD(RDD):
    """Partitions produced on demand by ``func(index) -> iterable``.

    Used by data generators so large synthetic datasets never pass through
    the driver as one list.
    """

    def __init__(self, context, num_partitions: int, func, partitioner=None):
        super().__init__(context, dependencies=(),
                         num_partitions=num_partitions,
                         partitioner=partitioner, name="generate")
        self._func = func

    def compute(self, index: int) -> list:
        return list(self._func(index))


class MapPartitionsRDD(RDD):
    """The workhorse narrow transformation."""

    def __init__(self, parent: RDD, func, preserves_partitioning=False):
        partitioner = parent.partitioner if preserves_partitioning else None
        super().__init__(parent.context, dependencies=(parent,),
                         partitioner=partitioner, name="map_partitions")
        self._func = func

    def compute(self, index: int) -> list:
        """``func``'s output: a list, or one :class:`RecordBatch`."""
        out = self._func(index, self.dependencies[0].iterator(index))
        return out if isinstance(out, RecordBatch) else list(out)

    def parent_partitions(self, index: int) -> list:
        return [(self.dependencies[0], index)]


class ZippedPartitionsRDD(RDD):
    """Combine co-numbered partitions of two RDDs with ``func(a, b)``.

    The zipper may emit records with arbitrary keys, so the parent's
    partitioner is *not* inherited unless the caller opts in.
    """

    def __init__(self, left: RDD, right: RDD, func,
                 preserves_partitioning: bool = False):
        if left.num_partitions != right.num_partitions:
            raise EngineError(
                "zip_partitions requires equal partition counts "
                f"({left.num_partitions} vs {right.num_partitions})"
            )
        partitioner = left.partitioner if preserves_partitioning else None
        super().__init__(left.context, dependencies=(left, right),
                         num_partitions=left.num_partitions,
                         partitioner=partitioner,
                         name="zip_partitions")
        self._func = func

    def compute(self, index: int) -> list:
        left, right = self.dependencies
        return list(self._func(left.iterator(index), right.iterator(index)))

    def parent_partitions(self, index: int) -> list:
        return [(dep, index) for dep in self.dependencies]


class LineageStub(RDD):
    """A node a process task ships without its lineage.

    Every partition the task reads of it arrives as a cached block's
    handle, or the task reads none of it,
    so only identity and partitioning travel (see
    :meth:`RDD._stub_state`). Reaching :meth:`compute` means a read the
    payload did not plan for.
    """

    def compute(self, index: int) -> list:
        raise EngineError(
            f"partition ({self.rdd_id}, {index}) of {self.name!r} shipped "
            "as a lineage stub, and its block is not in the task's handles")


class _ShuffleStageBase(RDD):
    """Shared map-stage machinery for the wide-dependency RDDs.

    Every shuffle stage has one shape: a ``(shuffle RDD, which)`` pair,
    where ``which`` indexes a wide parent slot (a :class:`ShuffledRDD`
    has the single slot 0). A stage runs one map task per parent
    partition, merges the per-task buckets in parent-partition order
    (the byte-identity contract), records the shuffle metrics, and
    stores the buckets in ``_buckets[which]``. The scheduler's stage
    loop owns all of it: it runs :meth:`run_shuffle_map_task` for each
    parent partition and calls :meth:`commit_shuffle` when the last
    output lands — inside a job, or on demand for a lazy
    :meth:`fetch_buckets` miss.

    A parent whose partitioner already equals this RDD's is narrow:
    no buckets, no bytes, no stage (Section VI-A's local join).
    """

    def __init__(self, parents, partitioner: Partitioner, name: str):
        super().__init__(parents[0].context, dependencies=parents,
                         num_partitions=partitioner.num_partitions,
                         partitioner=partitioner, name=name)
        self._buckets = [None] * len(self.dependencies)
        self._releases = {}    # which -> finalizer unlinking its segments

    def wide_slots(self) -> tuple:
        return tuple(
            which for which, parent in enumerate(self.dependencies)
            if parent.partitioner is None
            or parent.partitioner != self.partitioner)

    def parent_partitions(self, index: int) -> list:
        """A narrow slot reads the same index. A committed wide slot
        reads no parent: reducer ``index``'s bucket list rides with this
        node. An uncommitted one reads all of its parent, because the
        first read materializes the stage (:meth:`fetch_buckets`)."""
        wide = self.wide_slots()
        reads = []
        for which, parent in enumerate(self.dependencies):
            if which not in wide:
                reads.append((parent, index))
            elif self._buckets[which] is None:
                reads.extend((parent, parent_index) for parent_index
                             in range(parent.num_partitions))
        return reads

    def _sliced_state(self, indices) -> dict:
        state = super()._sliced_state(indices)
        state["_buckets"] = [None if buckets is None
                             else _keep(buckets, indices)
                             for buckets in list(self._buckets)]
        return state

    def shuffle_label(self, which: int) -> str:
        """The stage's span/timing label."""
        raise NotImplementedError

    def shuffle_ready(self, which: int) -> bool:
        """Whether stage ``which`` already has materialized buckets."""
        return self._buckets[which] is not None

    def fetch_buckets(self, which: int) -> list:
        """Stage ``which``'s per-reducer buckets, materialized once."""
        if self._buckets[which] is None:
            self.context.scheduler.run_stage(self, which)
        return self._buckets[which]

    def invalidate_shuffle(self) -> int:
        """Drop every slot's map output; returns how many were dropped.

        The next access re-runs the map tasks (fault injection)."""
        dropped = 0
        for which in range(len(self._buckets)):
            with self._materialize_lock(which):
                if self._buckets[which] is not None:
                    self._buckets[which] = None
                    self._releases.pop(which, lambda: None)()
                    dropped += 1
        return dropped

    def _reduce_segments(self, which: int, index: int) -> list:
        """Reducer ``index``'s buckets from stage ``which``, in parent
        order; shm-exported ones (the process backend) resolve here:
        packed batches zero-copy over the mapped segment, tuple lists as
        writable copies."""
        metrics = self.context.metrics
        return [shm_mod.resolve_segment(segment, metrics)
                for segment in self.fetch_buckets(which)[index]]

    # ------------------------------------------------------------------
    # map side
    # ------------------------------------------------------------------

    def _map_side(self, part):
        """The map-side step on a partition before bucketing; the base
        passes it through."""
        return part

    def _map_task(self, which: int, parent_index: int):
        """One shuffle map task: bucket one partition of parent
        ``which`` per reducer.

        Each map task owns its buckets, so tasks run with no shared
        state; the reduce-side merge concatenates them in parent order.
        Buckets are :class:`RecordBatch` packed blocks when the keys
        and values pack (or come as one batch) and ``partition_array``
        accepts the keys — one numpy pass for partition ids, one stable
        argsort for grouping, which keeps the map-side step's record
        order within every bucket — and lists of ``(key, value)`` pairs
        otherwise. Returns ``(buckets, records, bytes, batch_stats)``.
        """
        records, keys, values = _columns(
            self._map_side(self.dependencies[which].iterator(parent_index)))
        pids = None
        if keys is not None:
            pids = self.partitioner.partition_array(keys)
            if pids is not None and values is None:
                values = pack_values([rec[1] for rec in records])
        if pids is not None and values is not None:
            groups = group_indices_by_partition(pids, self.num_partitions)
            buckets = []
            total_bytes = 0
            num_batches = 0
            for idx in groups:
                if idx.size == 0:
                    buckets.append([])
                    continue
                batch = RecordBatch(keys[idx], values.gather(idx))
                buckets.append(batch)
                total_bytes += batch.nbytes
                num_batches += 1
            num_records = int(keys.size)
            return buckets, num_records, total_bytes, (num_batches,
                                                       num_records)
        if records is None:
            records = list(zip(keys.tolist(), values.unpack()))
        buckets = [[] for _ in range(self.num_partitions)]
        partition = self.partitioner.partition
        for key, value in records:
            buckets[partition(key)].append((key, value))
        return (buckets, len(records), estimate_partition_size(records),
                (0, 0))

    def run_shuffle_map_task(self, which: int, parent_index: int,
                             stage_span):
        """One traced, retried shuffle map task (any thread).

        Returns the ``(buckets, records, bytes, batch_stats)`` tuple of
        ``_map_task``; under the process backend the body round-trips
        through a worker instead.
        """
        tracer = self.context.tracer
        runner = self.context.process_runner
        with tracer.span("map_task", "task", parent=stage_span,
                         partition=parent_index) as task_span:
            if runner is not None:
                def attempt():
                    return runner.run_shuffle_map(
                        self, which, parent_index, task_span)
            else:
                def attempt():
                    return self._map_task(which, parent_index)
            out = run_task_with_retries(self.context, parent_index,
                                        attempt)
            task_span.set(records=out[1], bytes=out[2])
            return out

    def commit_shuffle(self, which: int, outputs, span) -> None:
        """Merge map outputs in parent-partition order and store them.

        The caller holds the stage's materialize lock. ``outputs`` is
        one ``_map_task`` tuple per parent partition, in parent order —
        whatever order the tasks finished in.
        """
        metrics = self.context.metrics
        buckets = [[] for _ in range(self.num_partitions)]
        total_records = 0
        total_bytes = 0
        total_batches = 0
        total_batch_records = 0
        for task_buckets, records, nbytes, stats in outputs:
            for target, segment in enumerate(task_buckets):
                if segment:
                    buckets[target].append(segment)
            total_records += records
            total_bytes += nbytes
            total_batches += stats[0]
            total_batch_records += stats[1]
        span.set(records=total_records, bytes=total_bytes,
                 batches=total_batches)
        metrics.add(shuffles_performed=1, shuffle_records=total_records,
                    shuffle_bytes=total_bytes, shuffle_batches=total_batches,
                    shuffle_batch_records=total_batch_records)
        self._buckets[which] = buckets
        # the map output's shm segments die with it: when it is
        # invalidated, or when this RDD is garbage-collected
        names = {segment.segment for bucket in buckets for segment in bucket
                 if isinstance(segment, shm_mod.ShmRef)}
        if names:
            self._releases[which] = weakref.finalize(
                self, self.context.shm_registry.release, *names)


class ShuffledRDD(_ShuffleStageBase):
    """A wide dependency: re-bucket (key, value) records by a partitioner.

    The combiner triple mirrors Spark's ``combineByKey``. When the parent
    is *already* partitioned by an equal partitioner, the dependency
    narrows: no data moves and no shuffle is recorded — this is precisely
    the property Spangle's matmul local join exploits (Section VI-A).

    With ``map_side_combine`` each map task folds its partition before
    bucketing and the reduce side merges combiners; without it the
    reduce side creates and merges raw values. When ``combine_kernel``
    names a commutative kernel ("sum" | "min" | "max", or "pair_sum"
    over 2-tuples) the folds run over sorted key runs in one numpy
    pass, and the merged partition stays a batch. Declaring a kernel
    promises that ``create_combiner`` is the identity and that
    ``merge_value``/``merge_combiners`` both equal the kernel's scalar
    fold; the packed path is byte-identical to the generic dict fold
    and falls back to it record-exactly whenever keys, values, or
    numeric guards refuse.
    """

    def __init__(self, parent: RDD, partitioner: Partitioner,
                 create_combiner, merge_value, merge_combiners,
                 map_side_combine: bool = True, combine_kernel=None):
        super().__init__((parent,), partitioner, "shuffle")
        if (combine_kernel is not None
                and combine_kernel not in batches.COMBINE_KERNELS):
            raise EngineError(
                f"unknown combine kernel {combine_kernel!r}; expected "
                f"one of {batches.COMBINE_KERNELS}")
        self._create = create_combiner
        self._merge_value = merge_value
        self._merge_combiners = merge_combiners
        self._map_side_combine = map_side_combine
        self._combine_kernel = combine_kernel

    def _combine_partition(self, records) -> dict:
        combined = {}
        for key, value in records:
            if key in combined:
                combined[key] = self._merge_value(combined[key], value)
            else:
                combined[key] = self._create(value)
        return combined

    def _fold(self, part):
        """The partition combined by key in first-appearance order (the
        dict combine's): a :class:`RecordBatch` if the declared kernel
        folds its columns, else the dict combine's record list."""
        if self._combine_kernel is not None:
            records, keys, values = _columns(part)
            if keys is not None and values is None:
                values = pack_values([rec[1] for rec in records])
            combined = combine_column(keys, values, self._combine_kernel)
            if combined is not None:
                return RecordBatch(*combined)
        return list(self._combine_partition(part).items())

    def _map_side(self, part):
        """Fold the partition before bucketing (with map-side combine);
        bucketing sees the same records whichever fold ran."""
        return self._fold(part) if self._map_side_combine else part

    def shuffle_label(self, which: int) -> str:
        return self.name

    def _merge_columnar(self, segments):
        """Vectorized reduce-side merge into one :class:`RecordBatch`,
        or None to fall back. Engages only when a combine kernel is
        declared and every segment is a batch whose columns concatenate;
        they do so in arrival (= parent partition) order, so the run
        fold replays the exact add sequence of the generic dict merge.
        """
        if self._combine_kernel is None or not segments or not all(
                isinstance(segment, RecordBatch) for segment in segments):
            return None
        values = concat_values([segment.values for segment in segments])
        combined = combine_column(
            np.concatenate([segment.keys for segment in segments]),
            values, self._combine_kernel)
        return combined and RecordBatch(*combined)

    def compute(self, index: int) -> list:
        """The partition's merged records; a kernel-combined one is a
        :class:`RecordBatch` (iterating it yields the records)."""
        if not self.wide_slots():
            # annotated but free: the parent is already partitioned the
            # way this shuffle wants, so nothing moves (Section VI-A)
            parent = self.dependencies[0]
            tracer = self.context.tracer
            with tracer.span("narrow_shuffle", "shuffle", narrow=True,
                             partition=index) as span:
                out = self._fold(parent.iterator(index))
                span.set(records=len(out))
            return out
        segments = self._reduce_segments(0, index)
        merged = self._merge_columnar(segments)
        if merged is not None:
            return merged
        # map-side-combined buckets carry combiners, the rest raw values
        if self._map_side_combine:
            create, merge = _identity, self._merge_combiners
        else:
            create, merge = self._create, self._merge_value
        merged = {}
        for segment in segments:
            for key, value in segment:
                if key in merged:
                    merged[key] = merge(merged[key], value)
                else:
                    merged[key] = create(value)
        return list(merged.items())


class CoGroupedRDD(_ShuffleStageBase):
    """Group several pair-RDDs by key: ``(key, [values_0, values_1, ...])``.

    Parents whose partitioner equals the target partitioner contribute
    through a narrow dependency (no shuffle); every other parent slot is
    one shuffle stage.
    """

    def __init__(self, parents, partitioner: Partitioner):
        super().__init__(tuple(parents), partitioner, "cogroup")

    def shuffle_label(self, which: int) -> str:
        return f"{self.name}[{which}]"

    def compute(self, index: int) -> list:
        groups = {}
        arity = len(self.dependencies)
        wide = self.wide_slots()
        for which, parent in enumerate(self.dependencies):
            if which in wide:
                segments = self._reduce_segments(which, index)
            else:
                # one pseudo-segment: the parent partition itself
                segments = [parent.iterator(index)]
            for segment in segments:
                for key, value in segment:
                    if key not in groups:
                        groups[key] = [[] for _ in range(arity)]
                    groups[key][which].append(value)
        return list(groups.items())
