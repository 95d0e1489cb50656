"""Gauges: the cluster's state, recorded in the trace.

The tracer (:mod:`repro.engine.tracing`) is the one observability
plane. This module supplies what it records about the cluster besides
the work itself:

- :func:`collect_sample` — one read-only snapshot of every counter of
  the :data:`~repro.engine.metrics.METRICS` catalog and of its gauges,
  each source keying its ``gauges()`` by catalog name: the storage
  ledger (``CacheManager``), the shared-memory plane
  (``SharedSegmentRegistry``) and the sparse tier's nnz balance. On a
  traced context, every job span closes with one zero-duration
  ``kind="gauge"`` event carrying this sample (:func:`record_sample`).
- :class:`NnzBalanceStats` — the per-partition nnz loads behind the
  ``nnz.*`` gauges.

Health is a read of a recorded trace, not a live monitor:
:func:`repro.engine.top.health_events` derives the threshold
conditions from these samples and the job spans. Nothing here starts
a thread or opens a file or a socket, and an untraced job never
samples.
"""

from __future__ import annotations

import threading
import time


class NnzBalanceStats:
    """Per-partition nnz loads of the last placed sparse stage.

    The PageRank graph loader (``BitmaskGraph.from_edges(balance=
    "nnz")``) records the per-partition valid-cell loads its
    partitioner produced;
    :func:`collect_sample` turns the latest recording into the
    ``nnz.*`` gauges — most importantly ``nnz.imbalance``, the max/mean
    load ratio the ``nnz_imbalance`` health condition reads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._stage = None
        self._loads = None

    def record(self, stage: str, loads) -> None:
        loads = [float(load) for load in loads]
        with self._lock:
            self._stage = str(stage)
            self._loads = loads

    def last(self):
        """``(stage, loads)`` of the latest recording, or
        ``(None, None)``."""
        with self._lock:
            loads = list(self._loads) if self._loads is not None \
                else None
            return self._stage, loads

    def gauges(self) -> dict:
        stage, loads = self.last()
        if not loads:
            return {}
        mean = sum(loads) / len(loads)
        peak = max(loads)
        return {
            "partition_max": peak,
            "partition_mean": mean,
            "imbalance": (peak / mean) if mean > 0 else 1.0,
            "partitions": len(loads),
        }

    def clear(self) -> None:
        with self._lock:
            self._stage = None
            self._loads = None


def collect_sample(context) -> dict:
    """One read-only snapshot of every subsystem gauge on ``context``.

    ``{"t", "gauges", "counters"}``, ``t`` in wall-clock seconds: the
    payload of a trace's ``gauge`` events.
    """
    gauges = {}
    for source in (context.cache, context.shm_registry):
        gauges.update(source.gauges())
    # NnzBalanceStats.gauges() is also read bare (bench/probes.py reads
    # its "imbalance"), so its catalog namespace is added here
    gauges.update({f"nnz.{name}": value
                   for name, value in context.nnz_stats.gauges().items()})
    return {
        "t": time.time(),
        "gauges": gauges,
        "counters": context.metrics.counts(),
    }


def record_sample(context, job_span) -> None:
    """The tracer's job hook: record a ``gauge`` event under the
    closing ``job_span``."""
    context.tracer.event("sample", "gauge", parent=job_span,
                         **collect_sample(context))
