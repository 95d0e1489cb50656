"""Execution metrics for the mini-Spark engine.

The paper's experimental story is largely about *costs that we can count*:
bytes moved through the shuffle, number of tasks scheduled, bytes spilled
to disk. The engine increments these counters as it runs; benchmarks take
snapshots before/after a job and feed the difference to the cost model.

:data:`METRICS` is the one catalog of every counter and every gauge a
gauge sample (``repro.engine.telemetry.collect_sample``) carries. The
snapshot fields, :meth:`MetricsRegistry.add`, the worker → driver merge,
``repro top`` and the ``explain`` reports all read it: adding a metric
is adding one row.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass, make_dataclass


@dataclass(frozen=True)
class Metric:
    """One catalog row: a counter the engine increments (cumulative,
    identical across schedulers) or a gauge a sample reads."""

    name: str
    kind: str  # "counter" | "gauge"
    unit: str
    layer: str
    help: str


# name                     kind     unit   layer             help
_TABLE = """
tasks_launched             counter  count  engine.scheduler  task attempts, retries included
stages_run                 counter  count  engine.scheduler  map and result stages run
jobs_run                   counter  count  engine.scheduler  jobs submitted to the scheduler
shuffle_records            counter  count  engine.shuffle    records moved by shuffle map stages
shuffle_bytes              counter  bytes  engine.shuffle    bytes moved by shuffle map stages
shuffles_performed         counter  count  engine.shuffle    shuffle map stages materialized
shuffle_batches            counter  count  engine.shuffle    packed RecordBatches shipped
shuffle_batch_records      counter  count  engine.shuffle    records that rode in packed batches
disk_read_bytes            counter  bytes  engine.spill      spill and store bytes read
disk_write_bytes           counter  bytes  engine.spill      spill and store bytes written
result_bytes               counter  bytes  engine.scheduler  task outputs returned to the driver
broadcast_bytes            counter  bytes  engine.broadcast  broadcast value bytes times executors
cache_hits                 counter  count  engine.storage    block reads served from memory or spill
cache_misses               counter  count  engine.storage    block reads that found no cached block
cache_evictions            counter  count  engine.storage    blocks evicted to stay within budget
cache_spills               counter  count  engine.storage    evicted blocks written to spill files
cache_reloads              counter  count  engine.storage    spilled blocks decoded back on access
chunks_repacked            counter  count  engine.storage    chunks re-encoded by the density policy
repack_bytes_saved         counter  bytes  engine.storage    net payload bytes repacking shed
recomputations             counter  count  engine.storage    lost cached partitions rebuilt
task_retries               counter  count  engine.worker     task attempts after a failure
kernels_fused              counter  count  core.plan         kernels compiled into fused passes
fused_chunks_avoided       counter  count  core.plan         intermediate chunks fused passes skip
optimizer_rules_fired      counter  count  core.optimizer    plan rewrites fired, recorded at compile
optimizer_chunks_pruned    counter  count  core.optimizer    chunk records the rewrites keep out of kernels
shm_segments_created       counter  count  engine.shm        shared-memory segments created
shm_bytes_mapped           counter  bytes  engine.shm        segment bytes mapped into a process
worker_respawns            counter  count  engine.worker     worker pools replaced after a crash
task_payload_bytes         counter  bytes  engine.worker     task payload bytes shipped to workers
cache.resident_bytes       gauge    bytes  engine.storage    bytes resident in the block cache
cache.spilled_bytes        gauge    bytes  engine.storage    encoded bytes in the spill tier
cache.blocks               gauge    count  engine.storage    blocks resident in the cache
cache.spilled_blocks       gauge    count  engine.storage    blocks in the spill tier
cache.budget_bytes         gauge    bytes  engine.storage    cache budget, 0 when unbounded
cache.pressure             gauge    ratio  engine.storage    resident bytes over the budget
shm.segments               gauge    count  engine.shm        live shared-memory segments
shm.resident_bytes         gauge    bytes  engine.shm        bytes in live shared-memory segments
pool.busy_threads          gauge    count  engine.scheduler  executor threads running a task
pool.queued_tasks          gauge    count  engine.scheduler  tasks submitted but not started
pool.active_jobs           gauge    count  engine.scheduler  jobs running on the executor pool
pool.num_workers           gauge    count  engine.scheduler  executor threads in the pool
scheduler.ready_stages     gauge    count  engine.scheduler  stages ready but not launched
scheduler.inflight_stages  gauge    count  engine.scheduler  stages launched but not committed
nnz.partition_max          gauge    cells  matrix            max partition nnz, last sparse stage
nnz.partition_mean         gauge    cells  matrix            mean partition nnz, last sparse stage
nnz.imbalance              gauge    ratio  matrix            max over mean partition nnz
nnz.partitions             gauge    count  matrix            partitions of the last sparse stage
"""

#: every counter and gauge, in catalog order
METRICS = tuple(Metric(*line.split(None, 4))
                for line in _TABLE.strip().splitlines())
METRICS_BY_NAME = {metric.name: metric for metric in METRICS}
COUNTERS = tuple(metric for metric in METRICS if metric.kind == "counter")
#: the counter names: the snapshot's fields, in catalog order
COUNTER_FIELDS = tuple(metric.name for metric in COUNTERS)


def _snapshot_sub(self, other):
    return MetricsSnapshot(**{name: getattr(self, name) - getattr(other, name)
                              for name in COUNTER_FIELDS})


def _snapshot_as_dict(self) -> dict:
    return {name: getattr(self, name) for name in COUNTER_FIELDS}


MetricsSnapshot = make_dataclass(
    "MetricsSnapshot", [(name, int, 0) for name in COUNTER_FIELDS],
    frozen=True,
    namespace={"__module__": __name__,
               "__doc__": "An immutable point-in-time copy of every "
                          "engine counter: one int field per counter "
                          "row of METRICS.",
               "__sub__": _snapshot_sub, "as_dict": _snapshot_as_dict})


class MetricsRegistry:
    """Mutable counters owned by a :class:`ClusterContext`.

    Every counter row of :data:`METRICS` reads as an attribute
    (``registry.tasks_launched``) and moves only through :meth:`add`.
    The counters are logical, identical between the serial, thread and
    process schedulers; wall times are trace products
    (:mod:`repro.engine.tracing`).
    """

    def __init__(self):
        self._counts = dict.fromkeys(COUNTER_FIELDS, 0)
        self._lock = threading.Lock()

    def __getattr__(self, name):
        counts = self.__dict__.get("_counts", {})
        if name in counts:
            return counts[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def add(self, **deltas) -> None:
        """Increment counters by name, e.g. ``add(cache_hits=1)``.

        Raises ``TypeError`` for a name that is not a counter row of
        :data:`METRICS`, before any counter moves.
        """
        counts = self._counts
        if not deltas.keys() <= counts.keys():
            unknown = sorted(deltas.keys() - counts.keys())
            raise TypeError(f"not a counter in METRICS: {unknown}")
        with self._lock:
            for name, value in deltas.items():
                counts[name] += value

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(**self._counts)

    def counts(self) -> dict:
        """``snapshot().as_dict()`` without building the snapshot: a
        gauge sample closes every traced job, and the frozen dataclass
        costs most of a sample."""
        with self._lock:
            return dict(self._counts)
