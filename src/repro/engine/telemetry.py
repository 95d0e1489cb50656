"""Continuous telemetry plane: sampler, time series, health, export.

The tracer (:mod:`repro.engine.tracing`) explains a job *after* it ran;
this module watches the cluster *while* it runs. A
:class:`TelemetrySampler` owned by a
:class:`~repro.engine.context.ClusterContext` (off by default —
``ClusterContext(telemetry=True)`` or ``telemetry_interval=0.25``)
periodically snapshots gauges from the existing subsystems:

- every counter of the :data:`~repro.engine.metrics.METRICS` catalog
  (stored cumulative; :meth:`TimeSeriesStore.rate` turns them into
  rate series),
- the catalog's gauges, each source keying its ``gauges()`` by catalog
  name: the storage ledger (``CacheManager``: resident / spilled bytes
  and block counts, eviction pressure against the budget), the
  shared-memory plane (``SharedSegmentRegistry``), the executor pool
  (``ExecutorPool``: busy dispatcher threads, queued tasks, stage
  occupancy) and the sparse tier's nnz balance,
- per-worker heartbeats for the process backend
  (:class:`WorkerHeartbeats`: liveness, task counts, last-task
  latency — fed by every task reply and by the crash path).

Samples land in a bounded ring-buffer :class:`TimeSeriesStore` with
absolute (``time.time``) timestamps, optionally mirrored to a rotating
JSON-lines sink (:class:`TelemetrySink`) for headless runs. On top:

- :class:`HealthMonitor` — threshold rules (ledger high-watermark,
  missed worker heartbeats, spill-rate spikes, shuffle skew from the
  tracer's job profiles) that emit structured warning events into the
  trace stream (``kind="health"`` spans), the sink, and
  ``ClusterContext.health()``.
- :class:`TelemetryServer` — a stdlib ``http.server`` thread
  (``ctx.serve_telemetry(port=...)``) serving Prometheus text
  exposition at ``/metrics``, a JSON snapshot at ``/telemetry.json``,
  and the health report at ``/health``.
- ``python -m repro top`` (:mod:`repro.engine.top`) — a live terminal
  dashboard over either the HTTP endpoint or a recorded JSONL.

Design constraints mirror the tracer's: **zero cost when disabled**
(no thread, no samples — the default), **read-only when enabled** (the
sampler only calls the subsystems' existing metered-free getters, so
job results stay byte-identical with telemetry on), and **no thread
outlives its context** (the sampler holds its context by weak
reference and an atexit guard — mirroring the shm registry sweep —
stops any sampler/server/sink still live at interpreter exit).
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
import weakref

from collections import deque
from dataclasses import dataclass

from repro.engine.metrics import COUNTERS, METRICS_BY_NAME

TELEMETRY_FORMAT = "repro-telemetry"
TELEMETRY_VERSION = 1

#: sampler period when ``telemetry=True`` without an explicit interval
DEFAULT_INTERVAL_S = 1.0

#: ring-buffer capacity per series (10 minutes at a 250 ms sampler)
DEFAULT_CAPACITY = 2400

#: rotate the JSONL sink past this many bytes (one ``.1`` kept)
DEFAULT_ROTATE_BYTES = 8 << 20


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
    ones whose process is gone — called by the sampler each tick and by
    the pool's crash path *before* the respawn counter moves, so a
    missed-heartbeat health event always precedes the respawn event.
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
        """``{pid: row-copy}`` for telemetry samples and dashboards."""
        with self._lock:
            return {pid: dict(row) for pid, row in self._workers.items()}

    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for row in self._workers.values()
                       if row["alive"])

    def known_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def gauges(self) -> dict:
        """Ledger size and live workers, keyed by catalog name."""
        return {"workers.known": self.known_count(),
                "workers.alive": self.alive_count()}


class NnzBalanceStats:
    """Per-partition nnz loads of the last placed sparse stage.

    The sparse execution tier (matmul's balanced shuffles,
    ``ArrayRDD.partition_by_nnz``, the graph loader) records the
    per-partition valid-cell loads its partitioner produced; the
    sampler turns the latest recording into the ``nnz.*`` gauges —
    most importantly ``nnz.imbalance``, the max/mean load ratio the
    :class:`NnzImbalance` health rule watches.
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


# ----------------------------------------------------------------------
# the time-series store
# ----------------------------------------------------------------------

class TimeSeriesStore:
    """Bounded ring buffers of ``(timestamp, value)`` per series name.

    Counter series hold cumulative values; :meth:`rate` differentiates
    over a trailing window. Worker rows flatten to
    ``worker.<pid>.<field>`` series so dashboards can sparkline them
    like any other gauge.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._series = {}    # name -> deque[(t, value)]
        self._last_sample = None
        self._num_samples = 0
        self._lock = threading.Lock()

    def record(self, sample: dict) -> None:
        """Fold one sampler tick (``{"t", "gauges", "counters",
        "workers"}``) into the ring buffers."""
        t = sample["t"]
        flat = dict(sample.get("gauges", {}))
        flat.update((f"counter.{name}", value)
                    for name, value in sample.get("counters", {}).items())
        for pid, row in sample.get("workers", {}).items():
            flat[f"worker.{pid}.alive"] = 1 if row.get("alive") else 0
            flat[f"worker.{pid}.tasks"] = row.get("tasks", 0)
            if row.get("last_task_s") is not None:
                flat[f"worker.{pid}.last_task_s"] = row["last_task_s"]
        with self._lock:
            for name, value in flat.items():
                series = self._series.get(name)
                if series is None:
                    series = deque(maxlen=self.capacity)
                    self._series[name] = series
                series.append((t, value))
            self._last_sample = sample
            self._num_samples += 1

    def names(self) -> list:
        with self._lock:
            return sorted(self._series)

    def series(self, name: str, window_s: float = None) -> list:
        """``[(t, value), ...]`` — optionally only the trailing window."""
        with self._lock:
            points = list(self._series.get(name, ()))
        if window_s is not None and points:
            cutoff = points[-1][0] - window_s
            points = [point for point in points if point[0] >= cutoff]
        return points

    def latest(self, name: str):
        with self._lock:
            series = self._series.get(name)
            return series[-1][1] if series else None

    def last_sample(self):
        with self._lock:
            return self._last_sample

    def num_samples(self) -> int:
        with self._lock:
            return self._num_samples

    def rate(self, name: str, window_s: float = 10.0) -> float:
        """Per-second delta of a cumulative series over the window."""
        points = self.series(name, window_s=window_s)
        if len(points) < 2:
            return 0.0
        (t0, v0), (t1, v1) = points[0], points[-1]
        span = t1 - t0
        return (v1 - v0) / span if span > 0 else 0.0

    def rate_series(self, name: str, window_s: float = None) -> list:
        """Point-to-point derivative of a cumulative series."""
        return point_rates(self.series(name, window_s=window_s))


def point_rates(points) -> list:
    """``[(t, per-second delta), ...]`` between consecutive points of a
    cumulative ``[(t, value), ...]`` series."""
    rates = []
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        span = t1 - t0
        rates.append((t1, (v1 - v0) / span if span > 0 else 0.0))
    return rates


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
    """One threshold check, evaluated against each sample.

    Subclasses return ``[(dedup_key, message, attrs), ...]`` from
    :meth:`check` — an empty list means healthy. Events fire on the
    transition into violation; a condition that stays violated does not
    re-emit until it clears first.
    """

    name = "rule"
    severity = "warning"

    def check(self, sample, store, context) -> list:
        raise NotImplementedError


class LedgerHighWatermark(HealthRule):
    """Cache resident bytes crossed ``watermark`` of the budget."""

    name = "ledger_high_watermark"

    def __init__(self, watermark: float = 0.9):
        self.watermark = watermark

    def check(self, sample, store, context) -> list:
        gauges = sample.get("gauges", {})
        budget = gauges.get("cache.budget_bytes")
        resident = gauges.get("cache.resident_bytes", 0)
        if not budget or resident <= self.watermark * budget:
            return []
        return [(self.name,
                 f"cache ledger at {resident / budget:.0%} of its "
                 f"{budget:,} B budget",
                 {"resident_bytes": resident, "budget_bytes": budget,
                  "watermark": self.watermark})]


class SpillRateSpike(HealthRule):
    """Spill events per second exceeded ``per_second`` over the window."""

    name = "spill_rate_spike"

    def __init__(self, per_second: float = 5.0, window_s: float = 10.0):
        self.per_second = per_second
        self.window_s = window_s

    def check(self, sample, store, context) -> list:
        if store is None:   # on-demand evaluation has no time series
            return []
        rate = store.rate("counter.cache_spills", window_s=self.window_s)
        if rate <= self.per_second:
            return []
        return [(self.name,
                 f"spilling {rate:.1f} blocks/s (threshold "
                 f"{self.per_second:g}/s)",
                 {"spills_per_s": rate, "threshold": self.per_second})]


class WorkerHeartbeatMissed(HealthRule):
    """A registered worker process is gone (or silent too long)."""

    name = "worker_heartbeat_missed"

    def __init__(self, miss_after_s: float = None):
        self.miss_after_s = miss_after_s

    def check(self, sample, store, context) -> list:
        heartbeats = getattr(context, "worker_heartbeats", None)
        if heartbeats is None:
            return []
        heartbeats.reap_dead()
        violations = []
        now = sample["t"]
        for pid, row in heartbeats.rows().items():
            if not row["alive"]:
                violations.append(
                    (f"{self.name}:{pid}",
                     f"worker {pid} stopped responding",
                     {"pid": pid, "tasks": row["tasks"]}))
            elif (self.miss_after_s is not None
                    and now - row["last_seen"] > self.miss_after_s):
                violations.append(
                    (f"{self.name}:{pid}",
                     f"worker {pid} silent for "
                     f"{now - row['last_seen']:.1f}s",
                     {"pid": pid, "silent_s": now - row["last_seen"]}))
        return violations


class ShuffleSkew(HealthRule):
    """The tracer's latest job profile shows a badly skewed stage."""

    name = "shuffle_skew"

    def __init__(self, threshold: float = 4.0):
        self.threshold = threshold
        self._spans_seen = -1

    def check(self, sample, store, context) -> list:
        tracer = getattr(context, "tracer", None)
        if tracer is None or not tracer.enabled:
            return []
        spans = tracer.spans()
        if len(spans) == self._spans_seen:
            return []
        self._spans_seen = len(spans)
        profile = tracer.last_job_profile()
        if profile is None:
            return []
        violations = []
        for stage in profile.stages:
            if len(stage.task_times) >= 2 and \
                    stage.skew >= self.threshold:
                violations.append(
                    (f"{self.name}:{profile.name}:{stage.name}",
                     f"stage {stage.name!r} of job {profile.name!r} "
                     f"skewed {stage.skew:.1f}x (max/mean task time)",
                     {"job": profile.name, "stage": stage.name,
                      "skew": stage.skew}))
        return violations


class NnzImbalance(HealthRule):
    """The last placed sparse stage's partition nnz loads are skewed.

    Reads the ``nnz.imbalance`` gauge (max/mean per-partition valid
    cells recorded by the sparse execution tier) — a high ratio means
    one executor owns most of the nonzeros and will finish last no
    matter how idle the rest of the pool is.
    """

    name = "nnz_imbalance"

    def __init__(self, threshold: float = 4.0):
        self.threshold = threshold

    def check(self, sample, store, context) -> list:
        gauges = sample.get("gauges", {})
        imbalance = gauges.get("nnz.imbalance")
        if imbalance is None or imbalance < self.threshold:
            return []
        stats = getattr(context, "nnz_stats", None)
        stage, _loads = stats.last() if stats is not None \
            else (None, None)
        stage = stage or "?"
        return [(f"{self.name}:{stage}",
                 f"stage {stage!r} nnz load skewed {imbalance:.1f}x "
                 f"(max/mean partition nnz; threshold "
                 f"{self.threshold:g}x)",
                 {"stage": stage, "imbalance": imbalance,
                  "threshold": self.threshold})]


def default_rules() -> list:
    return [LedgerHighWatermark(), SpillRateSpike(),
            WorkerHeartbeatMissed(), ShuffleSkew(), NnzImbalance()]


class HealthMonitor:
    """Evaluates threshold rules; keeps a bounded structured event log.

    Owned by every :class:`~repro.engine.context.ClusterContext`
    (telemetry on or off) so fault paths — the worker pool's crash
    handler — can emit events unconditionally; the sampler drives the
    periodic rule evaluation only when telemetry is enabled. Every
    event is bridged into the trace stream as a zero-duration
    ``kind="health"`` span and into any subscribed sink.
    """

    def __init__(self, tracer=None, rules=None, max_events: int = 256):
        self.tracer = tracer
        self.rules = list(rules) if rules is not None else default_rules()
        self._events = deque(maxlen=max_events)
        self._active = set()
        self._sinks = []
        self._lock = threading.Lock()

    def configure(self, ledger_watermark=None, spill_rate_per_s=None,
                  heartbeat_miss_s=None, skew_threshold=None,
                  nnz_imbalance=None) -> None:
        """Adjust the default rules' thresholds in place."""
        settings = ((LedgerHighWatermark, "watermark", ledger_watermark),
                    (SpillRateSpike, "per_second", spill_rate_per_s),
                    (WorkerHeartbeatMissed, "miss_after_s", heartbeat_miss_s),
                    (ShuffleSkew, "threshold", skew_threshold),
                    (NnzImbalance, "threshold", nnz_imbalance))
        for rule in self.rules:
            for cls, attr, value in settings:
                if value is not None and isinstance(rule, cls):
                    setattr(rule, attr, value)

    def subscribe(self, sink) -> None:
        """``sink(record_dict)`` is called for every emitted event."""
        with self._lock:
            self._sinks.append(sink)

    def unsubscribe(self, sink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def emit(self, rule: str, severity: str, message: str,
             dedup_key: str = None, **attrs) -> HealthEvent:
        """Record one event (fault paths call this directly).

        ``dedup_key`` marks the condition active so the periodic rule
        evaluation does not immediately re-emit the same violation.
        """
        event = HealthEvent(time.time(), rule, severity, message, attrs)
        with self._lock:
            self._events.append(event)
            if dedup_key is not None:
                self._active.add(dedup_key)
            sinks = list(self._sinks)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(rule, "health", severity=severity,
                              message=message, **attrs)
        record = dict(event.as_dict(), type="health")
        for sink in sinks:
            try:
                sink(record)
            except Exception:  # pragma: no cover - sink must not kill us
                pass
        return event

    def evaluate(self, sample, store, context) -> list:
        """Run every rule against one sample; returns new events."""
        current = set()
        emitted = []
        for rule in self.rules:
            try:
                violations = rule.check(sample, store, context)
            except Exception:  # pragma: no cover - rule must not kill us
                continue
            for key, message, attrs in violations:
                current.add(key)
                with self._lock:
                    already = key in self._active
                if not already:
                    emitted.append(self.emit(rule.name, rule.severity,
                                             message, dedup_key=key,
                                             **attrs))
        with self._lock:
            # keep fault-path keys (not produced by any rule this tick)
            # active only while their rule still reports them; direct
            # emits use rule-shaped keys, so this clears recovered ones
            rule_names = tuple(rule.name for rule in self.rules)
            cleared = {key for key in self._active
                       if key.startswith(rule_names) and
                       key not in current}
            self._active -= cleared
        return emitted

    def evaluate_now(self, context) -> list:
        """Evaluate the rules against a fresh gauge snapshot.

        The telemetry-off path behind ``ClusterContext.health()``: no
        sampler means no periodic evaluation, so without this a
        fault-path condition (e.g. a crashed worker's missed
        heartbeat) would stay active — and the status ``warn`` —
        forever, even after the pool respawned. Rules that need the
        time-series store (spill rate) skip when it is absent.
        """
        return self.evaluate(collect_sample(context), None, context)

    def events(self) -> list:
        with self._lock:
            return list(self._events)

    def status(self) -> str:
        with self._lock:
            return "warn" if self._active else "ok"


class HealthReport:
    """The printable answer to ``ClusterContext.health()``."""

    def __init__(self, status: str, events, sampled: int,
                 interval_s=None):
        self.status = status
        self.events = list(events)
        self.sampled = sampled
        self.interval_s = interval_s

    def as_dict(self) -> dict:
        return {"status": self.status,
                "events": [event.as_dict() for event in self.events],
                "samples": self.sampled,
                "interval_s": self.interval_s}

    def render(self) -> str:
        lines = [f"Health: {self.status.upper()}  "
                 f"({self.sampled} samples"
                 + (f", {self.interval_s:g}s interval"
                    if self.interval_s else "")
                 + f", {len(self.events)} events)"]
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
# the JSONL sink
# ----------------------------------------------------------------------

class TelemetrySink:
    """Rotating JSON-lines telemetry log for headless runs.

    One meta line, then one line per sample and per health event. When
    the live file passes ``rotate_bytes`` it is renamed to
    ``<path>.1`` (replacing any previous rotation) and a fresh file —
    with a fresh meta line — continues the stream, so disk usage is
    bounded at roughly twice the rotation size.
    """

    def __init__(self, path, meta: dict = None,
                 rotate_bytes: int = DEFAULT_ROTATE_BYTES):
        self.path = str(path)
        self.rotate_bytes = rotate_bytes
        self._meta = dict(meta or {})
        self._lock = threading.Lock()
        self._handle = None
        self._bytes = 0
        self._open()

    def _open(self) -> None:
        self._handle = open(self.path, "w", encoding="utf-8")
        meta = dict(self._meta, type="meta", format=TELEMETRY_FORMAT,
                    version=TELEMETRY_VERSION)
        line = json.dumps(meta) + "\n"
        self._handle.write(line)
        self._bytes = len(line)

    def write(self, record: dict) -> None:
        line = json.dumps(record) + "\n"
        with self._lock:
            if self._handle is None:
                return
            if self._bytes + len(line) > self.rotate_bytes:
                self._handle.close()
                os.replace(self.path, self.path + ".1")
                self._open()
            self._handle.write(line)
            self._handle.flush()
            self._bytes += len(line)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                self._handle.close()
                self._handle = None


# ----------------------------------------------------------------------
# the sampler
# ----------------------------------------------------------------------

_LIVE_SAMPLERS = weakref.WeakSet()
_LIVE_SERVERS = weakref.WeakSet()


def collect_sample(context) -> dict:
    """One read-only snapshot of every subsystem gauge on ``context``.

    Shared by the sampler's periodic tick and the on-demand rule
    evaluation behind ``ClusterContext.health()`` (which must work
    with telemetry off, where no sampler exists).
    """
    now = time.time()
    heartbeats = context.worker_heartbeats
    heartbeats.reap_dead()
    gauges = {}
    for source in (context.cache, context.shm_registry,
                   context.executor_pool, heartbeats):
        gauges.update(source.gauges())
    # NnzBalanceStats.gauges() is also read bare (bench/probes.py reads
    # its "imbalance"), so its catalog namespace is added here
    gauges.update({f"nnz.{name}": value
                   for name, value in context.nnz_stats.gauges().items()})
    return {
        "t": now,
        "up_s": 0.0,
        "gauges": gauges,
        "counters": context.metrics.snapshot().as_dict(),
        "workers": {str(pid): row
                    for pid, row in heartbeats.rows().items()},
    }


class TelemetrySampler:
    """The background gauge sampler owned by a ``ClusterContext``.

    Holds its context by *weak* reference: the daemon thread can never
    keep a dropped context alive, and exits on its own once the context
    is collected. ``stop()`` takes a final sample first so short-lived
    contexts still record at least one tick.
    """

    def __init__(self, context, interval: float = DEFAULT_INTERVAL_S,
                 capacity: int = DEFAULT_CAPACITY, sink_path=None,
                 rotate_bytes: int = DEFAULT_ROTATE_BYTES):
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        self.interval = interval
        self.store = TimeSeriesStore(capacity=capacity)
        self.started_at = time.time()
        self._context_ref = weakref.ref(context)
        self._stop = threading.Event()
        self._thread = None
        self._lock = threading.Lock()
        self.meta = {
            "backend": getattr(context, "backend", "thread"),
            "num_executors": getattr(context, "num_executors", None),
            "interval_s": interval,
            "started_at": self.started_at,
            "pid": os.getpid(),
        }
        self.sink = None
        if sink_path is not None:
            self.open_sink(sink_path, rotate_bytes=rotate_bytes)
        _LIVE_SAMPLERS.add(self)

    # -- sink -------------------------------------------------------------

    def open_sink(self, path,
                  rotate_bytes: int = DEFAULT_ROTATE_BYTES) -> None:
        """Mirror every sample and health event to a rotating JSONL."""
        self.close_sink()
        self.sink = TelemetrySink(path, meta=self.meta,
                                  rotate_bytes=rotate_bytes)
        context = self._context_ref()
        if context is not None:
            context.health_monitor.subscribe(self.sink.write)

    def close_sink(self) -> None:
        sink = self.sink
        if sink is None:
            return
        self.sink = None
        context = self._context_ref()
        if context is not None:
            context.health_monitor.unsubscribe(sink.write)
        sink.close()

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self.sample_once()
            self._thread = threading.Thread(
                target=self._loop, name="repro-telemetry", daemon=True)
            self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            if self._context_ref() is None:
                break
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - sampling must not die
                pass

    def stop(self, final_sample: bool = True) -> None:
        """Stop the thread, take a last sample, flush and close the sink."""
        with self._lock:
            thread = self._thread
            self._thread = None
            self._stop.set()
        if thread is not None:
            thread.join(timeout=5.0)
        if final_sample and self._context_ref() is not None:
            try:
                self.sample_once()
            except Exception:  # pragma: no cover
                pass
        self.close_sink()

    # -- sampling ---------------------------------------------------------

    def sample_once(self):
        """Collect one sample; returns it (None once the context died)."""
        context = self._context_ref()
        if context is None:
            return None
        sample = collect_sample(context)
        sample["up_s"] = sample["t"] - self.started_at
        self.store.record(sample)
        sink = self.sink
        if sink is not None:
            sink.write(dict(sample, type="sample"))
        context.health_monitor.evaluate(sample, self.store, context)
        return sample

    # -- snapshots --------------------------------------------------------

    def snapshot(self, series_window_s: float = None) -> dict:
        """The JSON snapshot served at ``/telemetry.json``."""
        context = self._context_ref()
        monitor = context.health_monitor if context is not None else None
        health = {"status": monitor.status() if monitor else "ok",
                  "events": [event.as_dict() for event in
                             (monitor.events() if monitor else ())]}
        return _snapshot_dict(self.store, self.meta, health,
                              window_s=series_window_s)


def _snapshot_dict(store, meta, health, window_s=None) -> dict:
    """The ``/telemetry.json`` document over ``store``'s series."""
    sample = store.last_sample() or {}
    return {
        "format": TELEMETRY_FORMAT,
        "version": TELEMETRY_VERSION,
        "meta": dict(meta),
        "t": sample.get("t"),
        "up_s": sample.get("up_s"),
        "gauges": dict(sample.get("gauges", {})),
        "counters": dict(sample.get("counters", {})),
        "workers": {pid: dict(row) for pid, row
                    in sample.get("workers", {}).items()},
        "series": {name: [[t, value] for t, value in
                          store.series(name, window_s=window_s)]
                   for name in store.names()},
        "num_samples": store.num_samples(),
        "health": health,
    }


def snapshot_from_records(records) -> dict:
    """Rebuild a :meth:`TelemetrySampler.snapshot`-shaped dict from the
    JSONL records a :class:`TelemetrySink` wrote (the ``repro top``
    replay path)."""
    store = TimeSeriesStore()
    meta = {}
    events = []
    for record in records:
        kind = record.get("type")
        if kind == "meta":
            meta = {key: value for key, value in record.items()
                    if key not in ("type", "format", "version")}
        elif kind == "sample":
            store.record(record)
        elif kind == "health":
            events.append({key: value for key, value in record.items()
                           if key != "type"})
    return _snapshot_dict(store, meta, {"status": "warn" if events else "ok",
                                        "events": events})


def load_telemetry_jsonl(path) -> dict:
    """Parse a recorded telemetry JSONL into a snapshot dict."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if records and records[0].get("type") == "meta" and \
            records[0].get("format") not in (None, TELEMETRY_FORMAT):
        raise ValueError(
            f"{path}: not a {TELEMETRY_FORMAT} log "
            f"(format={records[0].get('format')!r})")
    return snapshot_from_records(records)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.10g}"


def prometheus_text(snapshot: dict, prefix: str = "spangle") -> str:
    """Render a snapshot in Prometheus text exposition format 0.0.4.

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

    counters = snapshot.get("counters", {})
    for metric in COUNTERS:
        value = counters.get(metric.name)
        if value is not None:
            emit(f"{prefix}_{metric.name}_total", "counter", [({}, value)],
                 help_text=metric.help)
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = METRICS_BY_NAME.get(name)
        emit(f"{prefix}_{name.replace('.', '_')}", "gauge", [({}, value)],
             help_text=metric.help if metric is not None else None)
    workers = snapshot.get("workers", {})
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
    health = snapshot.get("health", {})
    emit(f"{prefix}_health_ok", "gauge",
         [({}, 1 if health.get("status", "ok") == "ok" else 0)],
         help_text="1 while no health rule is in violation")
    emit(f"{prefix}_health_events_total", "counter",
         [({}, len(health.get("events", ())))])
    if snapshot.get("up_s") is not None:
        emit(f"{prefix}_up_seconds", "gauge", [({}, snapshot["up_s"])])
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the HTTP exporter
# ----------------------------------------------------------------------

class TelemetryServer:
    """A tiny stdlib HTTP thread serving the pull-based exporters.

    Routes: ``/metrics`` (Prometheus text), ``/telemetry.json`` (full
    JSON snapshot, also at ``/``), ``/health`` (health report JSON).
    Binds loopback by default; ``port=0`` picks a free port (read it
    back from :attr:`port`).
    """

    def __init__(self, sampler: TelemetrySampler, port: int = 0,
                 host: str = "127.0.0.1"):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        sampler_ref = weakref.ref(sampler)

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # noqa: ARG002 - silence
                pass

            def _send(self, body: str, content_type: str,
                      code: int = 200) -> None:
                payload = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):  # noqa: N802 - http.server API
                live = sampler_ref()
                if live is None:
                    self._send("telemetry sampler is gone\n",
                               "text/plain", code=503)
                    return
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    self._send(prometheus_text(live.snapshot()),
                               "text/plain; version=0.0.4")
                elif path in ("/", "/telemetry.json"):
                    self._send(json.dumps(live.snapshot()),
                               "application/json")
                elif path == "/health":
                    self._send(
                        json.dumps(live.snapshot()["health"]),
                        "application/json")
                else:
                    self._send("not found\n", "text/plain", code=404)

        self.sampler = sampler
        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry-http", daemon=True)
        self._thread.start()
        _LIVE_SERVERS.add(self)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        httpd = self._httpd
        if httpd is None:
            return
        self._httpd = None
        httpd.shutdown()
        httpd.server_close()
        self._thread.join(timeout=5.0)


def _shutdown_at_exit() -> None:  # pragma: no cover - interpreter exit
    """Mirror the shm registry's atexit sweep: no sampler thread, HTTP
    server, or open sink outlives the interpreter."""
    for server in list(_LIVE_SERVERS):
        try:
            server.stop()
        except Exception:
            pass
    for sampler in list(_LIVE_SAMPLERS):
        try:
            sampler.stop(final_sample=False)
        except Exception:
            pass


atexit.register(_shutdown_at_exit)
