"""Health and gauges: the cluster's state, recorded in the trace.

The tracer (:mod:`repro.engine.tracing`) is the one observability
plane. This module supplies what it records about the cluster besides
the work itself:

- :func:`collect_sample` — one read-only snapshot of every counter of
  the :data:`~repro.engine.metrics.METRICS` catalog and of its gauges,
  each source keying its ``gauges()`` by catalog name: the storage
  ledger (``CacheManager``), the shared-memory plane
  (``SharedSegmentRegistry``), the executor pool (``ExecutorPool``),
  the worker heartbeats and the sparse tier's nnz balance. On a traced
  context, every job span closes with one zero-duration
  ``kind="gauge"`` event carrying this sample
  (:meth:`HealthMonitor.observe_job`).
- :class:`WorkerHeartbeats` — per-worker liveness for the process
  backend, fed by every task reply and by the crash path.
- :class:`HealthMonitor` — threshold rules (ledger high-watermark,
  spill rate, missed worker heartbeats, shuffle skew, nnz imbalance)
  evaluated against each gauge sample. Events land in a bounded log
  (``ClusterContext.health()``) and, when traced, in the trace as
  ``kind="health"`` spans. Fault paths call :meth:`HealthMonitor.emit`
  directly, traced or not.
- :func:`prometheus_text` — Prometheus text exposition of a sample.

Nothing here starts a thread or opens a file or a socket. An untraced
job never samples; ``ClusterContext.health()`` evaluates the rules on
demand.
"""

from __future__ import annotations

import os
import threading
import time

from collections import deque
from dataclasses import dataclass

from repro.engine.metrics import COUNTERS, METRICS_BY_NAME
from repro.engine.tracing import STAGE_LIKE_KINDS


# ----------------------------------------------------------------------
# worker heartbeats (process backend liveness)
# ----------------------------------------------------------------------

def pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a live (non-zombie) process.

    ``os.kill(pid, 0)`` alone is not enough: a SIGKILLed worker stays a
    zombie until its parent reaps it, and signalling a zombie succeeds.
    On Linux the process state in ``/proc/<pid>/stat`` disambiguates.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # pragma: no cover - not ours
        return True
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
        # field 3 follows the parenthesized comm, which may itself
        # contain spaces and parentheses — split after the last ')'
        state = stat.rsplit(b")", 1)[1].split()[0]
        return state != b"Z"
    except (OSError, IndexError):  # pragma: no cover - non-Linux
        return True


class WorkerHeartbeats:
    """Driver-side liveness ledger for forked worker processes.

    Workers are registered when the pool forks them; every task reply
    beats its worker's entry (last-seen time, task count, last-task
    latency). :meth:`reap_dead` probes registered workers and marks the
    ones whose process is gone — called by every :func:`collect_sample`
    and by the pool's crash path *before* the respawn counter moves, so
    a missed-heartbeat health event always precedes the respawn event.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._workers = {}   # pid -> mutable row dict

    def _row(self, pid: int, now: float) -> dict:
        row = self._workers.get(pid)
        if row is None:
            row = {"pid": pid, "alive": True, "first_seen": now,
                   "last_seen": now, "tasks": 0, "last_task_s": None}
            self._workers[pid] = row
        return row

    def register(self, pids) -> None:
        now = time.time()
        with self._lock:
            for pid in pids:
                self._row(pid, now)

    def beat(self, pid: int, task_wall_s=None) -> None:
        now = time.time()
        with self._lock:
            # only registered workers beat: a late reply absorbed after
            # a crash forgot its (replaced) generation must not
            # resurrect the old pid's row — the resurrected corpse
            # would later reap as a spurious missed-heartbeat that
            # never clears
            row = self._workers.get(pid)
            if row is None:
                return
            row["alive"] = True
            row["last_seen"] = now
            row["tasks"] += 1
            if task_wall_s is not None:
                row["last_task_s"] = task_wall_s

    def forget(self, pids) -> None:
        """Drop rows for workers that were replaced by a respawn, so
        the missed-heartbeat condition clears once the pool recovers."""
        with self._lock:
            for pid in pids:
                self._workers.pop(pid, None)

    def reap_dead(self) -> list:
        """Probe live-marked workers; returns pids newly found dead."""
        with self._lock:
            candidates = [pid for pid, row in self._workers.items()
                          if row["alive"]]
        dead = [pid for pid in candidates if not pid_alive(pid)]
        with self._lock:
            for pid in dead:
                row = self._workers.get(pid)
                if row is not None:
                    row["alive"] = False
        return dead

    def rows(self) -> dict:
        """``{pid: row-copy}`` for gauge samples and dashboards."""
        with self._lock:
            return {pid: dict(row) for pid, row in self._workers.items()}


class NnzBalanceStats:
    """Per-partition nnz loads of the last placed sparse stage.

    The PageRank graph loader (``BitmaskGraph.from_edges(balance=
    "nnz")``) records the per-partition valid-cell loads its
    partitioner produced;
    :func:`collect_sample` turns the latest recording into the
    ``nnz.*`` gauges — most importantly ``nnz.imbalance``, the max/mean
    load ratio the :class:`NnzImbalance` health rule watches.
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

    ``{"t", "gauges", "counters", "workers"}``, ``t`` in wall-clock
    seconds: the payload of a trace's ``gauge`` events and the input of
    every health rule.
    """
    now = time.time()
    heartbeats = context.worker_heartbeats
    heartbeats.reap_dead()
    workers = heartbeats.rows()
    gauges = {"workers.known": len(workers),
              "workers.alive": sum(row["alive"] for row in workers.values())}
    for source in (context.cache, context.shm_registry,
                   context.executor_pool):
        gauges.update(source.gauges())
    # NnzBalanceStats.gauges() is also read bare (bench/probes.py reads
    # its "imbalance"), so its catalog namespace is added here
    gauges.update({f"nnz.{name}": value
                   for name, value in context.nnz_stats.gauges().items()})
    return {
        "t": now,
        "gauges": gauges,
        "counters": context.metrics.counts(),
        "workers": {str(pid): row for pid, row in workers.items()},
    }


# ----------------------------------------------------------------------
# health monitoring
# ----------------------------------------------------------------------

@dataclass
class HealthEvent:
    """One structured health observation."""

    t: float
    rule: str
    severity: str
    message: str
    attrs: dict

    def as_dict(self) -> dict:
        return dict(vars(self), attrs=dict(self.attrs))


class HealthRule:
    """One threshold check, evaluated against each gauge sample.

    Subclasses return ``[(dedup_key, message, attrs), ...]`` from
    :meth:`check` — an empty list means healthy. Events fire on the
    transition into violation; a condition that stays violated does not
    re-emit until it clears first.
    """

    name = "rule"
    severity = "warning"

    def check(self, sample, context) -> list:
        raise NotImplementedError


class LedgerHighWatermark(HealthRule):
    """Cache resident bytes crossed :attr:`WATERMARK` of the budget."""

    name = "ledger_high_watermark"
    WATERMARK = 0.9

    def check(self, sample, context) -> list:
        gauges = sample.get("gauges", {})
        budget = gauges.get("cache.budget_bytes")
        resident = gauges.get("cache.resident_bytes", 0)
        if not budget or resident <= self.WATERMARK * budget:
            return []
        return [(self.name,
                 f"cache ledger at {resident / budget:.0%} of its "
                 f"{budget:,} B budget",
                 {"resident_bytes": resident, "budget_bytes": budget,
                  "watermark": self.WATERMARK})]


class SpillRateSpike(HealthRule):
    """Spills per second since the previous sample exceeded
    :attr:`PER_SECOND`."""

    name = "spill_rate_spike"
    PER_SECOND = 5.0

    def __init__(self):
        self._previous = None   # (t, cache_spills) of the last sample

    def check(self, sample, context) -> list:
        now = sample["t"]
        spills = sample.get("counters", {}).get("cache_spills", 0)
        previous, self._previous = self._previous, (now, spills)
        if previous is None or now <= previous[0]:
            return []
        rate = (spills - previous[1]) / (now - previous[0])
        if rate <= self.PER_SECOND:
            return []
        return [(self.name,
                 f"spilling {rate:.1f} blocks/s (threshold "
                 f"{self.PER_SECOND:g}/s)",
                 {"spills_per_s": rate, "threshold": self.PER_SECOND})]


class WorkerHeartbeatMissed(HealthRule):
    """A registered worker process is gone."""

    name = "worker_heartbeat_missed"

    def check(self, sample, context) -> list:
        return [(f"{self.name}:{pid}", f"worker {pid} stopped responding",
                 {"pid": int(pid), "tasks": row["tasks"]})
                for pid, row in sample.get("workers", {}).items()
                if not row["alive"]]


class ShuffleSkew(HealthRule):
    """A stage traced since the previous check ran its tasks skewed
    past :attr:`THRESHOLD` (max/mean task time).

    Reads only the spans finished since its last call, so a check
    costs the same however long the trace grows.
    """

    name = "shuffle_skew"
    THRESHOLD = 4.0

    def __init__(self):
        self._mark = None

    def check(self, sample, context) -> list:
        tracer = getattr(context, "tracer", None)
        if tracer is None or not tracer.enabled:
            return []
        spans, self._mark = tracer.spans_from(self._mark)
        task_times = {}
        stages = []
        for span in spans:
            if span.kind == "task":
                task_times.setdefault(span.parent_id, []).append(
                    span.end_s - span.start_s)
            elif span.kind in STAGE_LIKE_KINDS:
                stages.append(span)
        violations = []
        for span in stages:
            times = task_times.get(span.span_id, ())
            if len(times) < 2:
                continue
            mean = sum(times) / len(times)
            skew = max(times) / mean if mean > 0 else 1.0
            if skew >= self.THRESHOLD:
                violations.append(
                    (f"{self.name}:{span.name}",
                     f"stage {span.name!r} skewed {skew:.1f}x "
                     f"(max/mean task time)",
                     {"stage": span.name, "skew": skew}))
        return violations


class NnzImbalance(HealthRule):
    """The last placed sparse stage's partition nnz loads are skewed.

    Reads the ``nnz.imbalance`` gauge (max/mean per-partition valid
    cells recorded by the sparse execution tier) — a high ratio means
    one executor owns most of the nonzeros and will finish last no
    matter how idle the rest of the pool is.
    """

    name = "nnz_imbalance"
    THRESHOLD = 4.0

    def check(self, sample, context) -> list:
        imbalance = sample.get("gauges", {}).get("nnz.imbalance")
        if imbalance is None or imbalance < self.THRESHOLD:
            return []
        stats = getattr(context, "nnz_stats", None)
        stage = (stats.last()[0] if stats is not None else None) or "?"
        return [(f"{self.name}:{stage}",
                 f"stage {stage!r} nnz load skewed {imbalance:.1f}x "
                 f"(max/mean partition nnz; threshold "
                 f"{self.THRESHOLD:g}x)",
                 {"stage": stage, "imbalance": imbalance,
                  "threshold": self.THRESHOLD})]


class HealthMonitor:
    """Evaluates the threshold rules; keeps a bounded event log.

    Owned by every :class:`~repro.engine.context.ClusterContext` so
    fault paths — the worker pool's crash handler — can emit events
    whether or not the context is traced. On a traced context every
    event also lands in the trace as a zero-duration ``kind="health"``
    span.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.rules = [LedgerHighWatermark(), SpillRateSpike(),
                      WorkerHeartbeatMissed(), ShuffleSkew(),
                      NnzImbalance()]
        self._rule_names = tuple(rule.name for rule in self.rules)
        self._events = deque(maxlen=256)
        self._active = set()
        # reentrant: evaluate() holds it across the rules and emit()
        self._lock = threading.RLock()

    def emit(self, rule: str, severity: str, message: str,
             dedup_key: str = None, **attrs) -> HealthEvent:
        """Record one event (fault paths call this directly).

        ``dedup_key`` marks the condition active so the next rule
        evaluation does not immediately re-emit the same violation.
        """
        event = HealthEvent(time.time(), rule, severity, message, attrs)
        with self._lock:
            self._events.append(event)
            if dedup_key is not None:
                self._active.add(dedup_key)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(rule, "health", severity=severity,
                              message=message, **attrs)
        return event

    def evaluate(self, sample, context) -> list:
        """Run every rule against one sample; returns new events."""
        current = set()
        emitted = []
        with self._lock:
            for rule in self.rules:
                for key, message, attrs in rule.check(sample, context):
                    current.add(key)
                    if key not in self._active:
                        emitted.append(self.emit(
                            rule.name, rule.severity, message,
                            dedup_key=key, **attrs))
            # a condition clears once its rule stops reporting it;
            # fault-path emits use rule-shaped keys, so theirs clear
            # too once the pool has recovered
            if self._active:
                self._active -= {key for key in self._active
                                 if key.startswith(self._rule_names)
                                 and key not in current}
        return emitted

    def observe_job(self, context, job_span) -> None:
        """The tracer's job hook: record a ``gauge`` event under the
        closing ``job_span``, then evaluate the rules against it."""
        sample = collect_sample(context)
        self.tracer.event("sample", "gauge", parent=job_span, **sample)
        self.evaluate(sample, context)

    def evaluate_now(self, context) -> list:
        """Evaluate the rules against a fresh sample. What
        ``ClusterContext.health()`` calls, so a recovered fault-path
        condition (a crashed worker's missed heartbeat) clears on an
        untraced context too."""
        return self.evaluate(collect_sample(context), context)

    def events(self) -> list:
        with self._lock:
            return list(self._events)

    def status(self) -> str:
        with self._lock:
            return "warn" if self._active else "ok"


class HealthReport:
    """The printable answer to ``ClusterContext.health()``."""

    def __init__(self, status: str, events):
        self.status = status
        self.events = list(events)

    def as_dict(self) -> dict:
        return {"status": self.status,
                "events": [event.as_dict() for event in self.events]}

    def render(self) -> str:
        lines = [f"Health: {self.status.upper()}  "
                 f"({len(self.events)} events)"]
        for event in self.events[-10:]:
            age = time.time() - event.t
            lines.append(f"  [{event.severity:<7}] {event.rule:<24} "
                         f"{age:6.1f}s ago  {event.message}")
        if not self.events:
            lines.append("  (no health events)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.10g}"


def prometheus_text(sample: dict, prefix: str = "spangle") -> str:
    """Render a :func:`collect_sample` dict in Prometheus text
    exposition format 0.0.4.

    Engine counters become ``<prefix>_<name>_total`` counters, gauges
    become ``<prefix>_<dotted_name_with_underscores>`` gauges — both
    with their :data:`~repro.engine.metrics.METRICS` help — and
    per-worker rows become labelled series
    (``<prefix>_worker_alive{pid="..."}``).
    """
    lines = []

    def emit(name, mtype, samples, help_text=None):
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        for labels, value in samples:
            label_text = ""
            if labels:
                inner = ",".join(f'{key}="{val}"'
                                 for key, val in labels.items())
                label_text = "{" + inner + "}"
            lines.append(f"{name}{label_text} {_format_value(value)}")

    counters = sample.get("counters", {})
    for metric in COUNTERS:
        value = counters.get(metric.name)
        if value is not None:
            emit(f"{prefix}_{metric.name}_total", "counter", [({}, value)],
                 help_text=metric.help)
    for name, value in sorted(sample.get("gauges", {}).items()):
        metric = METRICS_BY_NAME.get(name)
        emit(f"{prefix}_{name.replace('.', '_')}", "gauge", [({}, value)],
             help_text=metric.help if metric is not None else None)
    workers = sample.get("workers", {})
    if workers:
        rows = sorted(workers.items())
        emit(f"{prefix}_worker_alive", "gauge",
             [({"pid": pid}, 1 if row.get("alive") else 0)
              for pid, row in rows],
             help_text="1 while the worker process responds")
        emit(f"{prefix}_worker_tasks_total", "counter",
             [({"pid": pid}, row.get("tasks", 0)) for pid, row in rows])
        latencies = [({"pid": pid}, row["last_task_s"])
                     for pid, row in rows
                     if row.get("last_task_s") is not None]
        if latencies:
            emit(f"{prefix}_worker_last_task_seconds", "gauge",
                 latencies)
    return "\n".join(lines) + "\n"
