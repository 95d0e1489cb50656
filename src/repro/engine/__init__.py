"""A from-scratch mini-Spark: the execution substrate Spangle runs on.

The paper builds Spangle on Apache Spark. This package reimplements the
slice of Spark that Spangle needs, in pure Python:

- :class:`~repro.engine.context.ClusterContext` — entry point; owns the
  simulated executors, the cache, and the metrics registry.
- :class:`~repro.engine.rdd.RDD` — lazy, lineage-tracked, partitioned
  collections with narrow transformations and actions.
- pair-RDD operations (:mod:`repro.engine.pairs`) — ``reduce_by_key``,
  ``join``, ``cogroup``... implemented over a real shuffle with byte
  accounting.
- :mod:`repro.engine.storage` — block cache with a running byte
  ledger, LRU eviction, real compressed spill to disk, and
  density-adaptive chunk repacking on admission.
- :mod:`repro.engine.lineage` — fault injection and lineage-based
  recomputation.
- :mod:`repro.engine.costmodel` — converts measured metrics (shuffle
  bytes, task counts, disk I/O) into a modeled cluster execution time so
  benchmarks can report cluster-scale comparisons from in-process runs.
- :mod:`repro.engine.tracing` — structured span tracing (job → stage →
  task plus shuffle/cache/broadcast/plan annotations), job
  profiles, and JSON-lines / Chrome-trace exporters.
- :mod:`repro.engine.batches` — the columnar shuffle data plane: packed
  :class:`~repro.engine.batches.RecordBatch` shuffle blocks, vectorized
  partitioning, and reduceat-style combine kernels, byte-identical to
  the per-record path it falls back to when keys or values refuse to
  pack.
- :mod:`repro.engine.worker` — the process execution backend
  (``ClusterContext(backend="process")``): forked worker processes run
  task bodies for true multi-core parallelism, with tasks serialized by
  :mod:`repro.engine.closure` (lambdas ship by value) and shuffle
  blocks / cached chunks exchanged zero-copy through
  ``multiprocessing`` shared memory (:mod:`repro.engine.shm`).
- :mod:`repro.engine.telemetry` — gauges in the trace: a traced job
  closes with a ``gauge`` event sampling every catalog gauge and
  counter. :mod:`repro.engine.top` reads a recorded trace: its
  ``health_events`` derives the threshold conditions (cache
  watermark, spill rate, worker respawn, shuffle skew, nnz
  imbalance) from the samples and job spans, and it renders the
  ``repro top`` dashboard frame.
"""

from repro.engine.batches import RecordBatch
from repro.engine.context import ClusterContext
from repro.engine.costmodel import ClusterCostModel, CostReport
from repro.engine.explain import memory_report
from repro.engine.metrics import MetricsRegistry, MetricsSnapshot
from repro.engine.partitioner import (
    HashPartitioner,
    NnzBalancedPartitioner,
    Partitioner,
)
from repro.engine.rdd import RDD
from repro.engine.scheduler import ExecutorPool, StageScheduler
from repro.engine.storage import CacheManager, StorageLevel
from repro.engine.tracing import JobProfile, Span, Tracer

__all__ = [
    "CacheManager",
    "ClusterContext",
    "ClusterCostModel",
    "CostReport",
    "ExecutorPool",
    "HashPartitioner",
    "NnzBalancedPartitioner",
    "JobProfile",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Partitioner",
    "RDD",
    "RecordBatch",
    "Span",
    "StageScheduler",
    "StorageLevel",
    "Tracer",
    "memory_report",
]
