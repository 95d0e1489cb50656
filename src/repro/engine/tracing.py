"""Structured tracing: the span tree behind every job.

The paper's evaluation is a story about *where time and bytes go* —
shuffle volume, chunk-mode choices, rank-query costs. Flat counters
(:mod:`repro.engine.metrics`) answer "how much"; this module answers
"where": a :class:`Tracer` owned by the
:class:`~repro.engine.context.ClusterContext` records a span tree —
job → stage → task — plus annotated spans for shuffle materialization,
broadcasts, cache traffic (hits/misses, and the memory
tier's ``cache_spill`` / ``cache_reload`` / ``cache_repack`` /
``cache_evict`` events with their in-memory and on-disk byte counts),
and compiled ChunkPlan passes (whose attributes carry kernel labels,
chunk modes, payload bytes, repack counts, and the bitmask rank-query
counts from :func:`repro.bitmask.rank_counts`).

Design constraints, in order:

- **Zero cost when disabled.** ``ClusterContext(trace=False)`` is the
  default; every instrumentation site starts with one attribute check
  and a disabled ``span()`` call returns a shared no-op object without
  allocating.
- **Cheap when enabled.** Spans use monotonic clocks
  (``time.perf_counter``), land in per-thread buffers, and are flushed
  into the shared list under a single lock (when a buffer fills, or on
  :meth:`Tracer.spans`).
- **Deterministic structure.** The *logical* span tree — names, kinds,
  parent edges, and non-timing attributes — is identical between the
  serial and threaded schedulers; only timings and span-id numbering
  differ. :func:`logical_tree` canonicalizes a span list for exactly
  that comparison.

Every finished job folds into a :class:`JobProfile`: critical-path
length, an executor-utilization timeline, task-skew statistics,
per-stage byte/record attribution, and per-chunk-mode attribution.
Exporters write a JSON-lines event log (:func:`export_jsonl`, replayed
by the ``repro trace`` CLI) and Chrome's ``chrome://tracing``
``trace_event`` format (:func:`export_chrome_trace`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time

#: span kinds, from the coarse to the annotated; a "gauge" span is the
#: zero-duration sample (repro.engine.telemetry) that closes every job
SPAN_KINDS = ("job", "stage", "task", "shuffle", "broadcast", "cache",
              "plan", "gauge")

#: kinds that behave like an executed stage in a profile/breakdown
STAGE_LIKE_KINDS = ("stage", "shuffle")

#: per-thread buffers flush into the shared list at this size
_FLUSH_AT = 256

#: buckets in a JobProfile's executor-utilization timeline
_TIMELINE_BUCKETS = 12


class Span:
    """One timed, attributed node of the trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "kind", "start_s",
                 "end_s", "thread", "attrs")

    def __init__(self, span_id, parent_id, name, kind, start_s,
                 thread, attrs):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start_s = start_s
        self.end_s = start_s
        self.thread = thread
        self.attrs = attrs

    @property
    def wall_s(self) -> float:
        return self.end_s - self.start_s

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the live span."""
        self.attrs.update(attrs)

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "thread": self.thread,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        span = cls(record["id"], record["parent"], record["name"],
                   record["kind"], record["start_s"], record["thread"],
                   dict(record.get("attrs") or {}))
        span.end_s = record["end_s"]
        return span

    def __repr__(self) -> str:
        return (f"Span({self.kind}:{self.name} id={self.span_id} "
                f"parent={self.parent_id} wall={self.wall_s * 1e3:.3f}ms)")


class _NullSpan:
    """The shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context-manager wrapper pairing ``Tracer.start``/``finish``."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span

    def set(self, **attrs) -> None:
        self._span.set(**attrs)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> bool:
        self._tracer.finish(self._span)
        return False


class _ThreadState:
    """Per-thread tracer state: the open-span stack and a buffer of
    finished spans (flushed into the shared list under one lock)."""

    __slots__ = ("thread", "stack", "buffer")

    def __init__(self, thread: str):
        self.thread = thread
        self.stack = []
        self.buffer = []


class Tracer:
    """Records a span tree for every job run on a context.

    Disabled (the default) it is a handful of attribute checks; enabled
    it appends finished :class:`Span` objects to per-thread buffers and
    merges them under ``_lock``. Parenting is implicit through a
    thread-local stack of open spans; tasks dispatched to executor
    threads pass their stage span as an explicit ``parent``.

    ``on_job_end``, when set, is called with every job span just before
    it closes, so what it records parents under the job (the context
    records its gauge sample there).
    """

    def __init__(self, enabled: bool = False, num_executors: int = None):
        self.enabled = enabled
        self.num_executors = num_executors
        self.on_job_end = None
        self._ids = itertools.count(1)
        self._spans = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._states = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._tls.state = state
            with self._lock:
                self._states.append(state)
        return state

    def current_span(self):
        """The innermost open span on this thread (None outside one)."""
        if not self.enabled:
            return None
        stack = self._state().stack
        return stack[-1] if stack else None

    def start(self, name: str, kind: str, parent=None, detached=False,
              **attrs):
        """Open a span; returns it (or :data:`NULL_SPAN` when disabled).

        ``parent`` overrides the implicit thread-local parent — required
        for task spans, which open on executor threads whose stacks do
        not contain the driver-side stage span.

        ``detached`` spans never join the thread-local stack: the
        scheduler's stage loop keeps several stage spans open on the
        driver thread at once, and stacking them would make each look
        like the previous one's child. Detached spans do not become the
        implicit parent of anything; give their children an explicit
        ``parent``.
        """
        if not self.enabled:
            return NULL_SPAN
        state = self._state()
        if parent is None and state.stack:
            parent = state.stack[-1]
        parent_id = parent.span_id if isinstance(parent, Span) else None
        span = Span(next(self._ids), parent_id, name, kind,
                    time.perf_counter(), state.thread, attrs)
        if not detached:
            state.stack.append(span)
        return span

    def finish(self, span) -> None:
        """Close a span opened by :meth:`start`."""
        if span is NULL_SPAN or not isinstance(span, Span):
            return
        if span.kind == "job" and self.on_job_end is not None:
            self.on_job_end(span)
        span.end_s = time.perf_counter()
        state = self._state()
        if span in state.stack:
            # discard any child spans an error path abandoned above us,
            # so the stack cannot poison later parenting
            while state.stack[-1] is not span:
                state.stack.pop()
            state.stack.pop()
        state.buffer.append(span)
        if len(state.buffer) >= _FLUSH_AT:
            with self._lock:
                self._spans.extend(state.buffer)
            state.buffer.clear()

    def span(self, name: str, kind: str, parent=None, detached=False,
             **attrs):
        """``with tracer.span(...) as span:`` — start/finish paired."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(self, self.start(name, kind, parent=parent,
                                            detached=detached, **attrs))

    def event(self, name: str, kind: str, parent=None, **attrs) -> None:
        """A zero-duration annotation under the current span."""
        if not self.enabled:
            return
        self.finish(self.start(name, kind, parent=parent, **attrs))

    def adopt_spans(self, records, parent=None) -> None:
        """Graft spans recorded by a worker-process tracer into this one.

        Each record is a ``Span.as_dict()`` payload shipped back in a
        task reply. Spans get fresh ids from this tracer; parent edges
        internal to the batch are remapped, and batch roots are
        re-parented under ``parent`` (the driver-side task span) so the
        logical tree matches a task that ran in-process.
        ``perf_counter`` timestamps transfer unchanged: workers are
        forked on the same host, and ``CLOCK_MONOTONIC`` is
        system-wide, so worker and driver clocks share an epoch.
        """
        if not self.enabled or not records:
            return
        parent_id = parent.span_id if isinstance(parent, Span) else None
        id_map = {}
        adopted = []
        for record in records:
            span = Span.from_dict(record)
            old_id = span.span_id
            span.span_id = next(self._ids)
            id_map[old_id] = span.span_id
            adopted.append((span, record.get("parent")))
        for span, old_parent in adopted:
            if old_parent is not None and old_parent in id_map:
                span.parent_id = id_map[old_parent]
            else:
                span.parent_id = parent_id
        with self._lock:
            self._spans.extend(span for span, _old in adopted)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        """Move every thread buffer into the shared list (hold _lock)."""
        for state in self._states:
            if state.buffer:
                self._spans.extend(state.buffer)
                state.buffer.clear()

    def spans(self) -> list:
        """All finished spans, id-ordered (flushes thread buffers)."""
        with self._lock:
            self._flush()
            return sorted(self._spans, key=lambda s: s.span_id)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            for state in self._states:
                state.buffer.clear()

    def job_profiles(self) -> list:
        """One :class:`JobProfile` per finished job span, in order."""
        return profiles_from_spans(self.spans(),
                                   num_executors=self.num_executors)

    def last_job_profile(self):
        profiles = self.job_profiles()
        return profiles[-1] if profiles else None

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def export_jsonl(self, path: str) -> None:
        export_jsonl(self.spans(), path,
                     num_executors=self.num_executors)

    def export_chrome_trace(self, path: str) -> None:
        export_chrome_trace(self.spans(), path)


# ----------------------------------------------------------------------
# logical tree (the serial == threaded determinism contract)
# ----------------------------------------------------------------------

#: span attributes that observe the run, not its logic — the scheduler
#: stamps stage readiness/launch times on stage spans, and the process
#: backend names the worker pid that served a task; those (like
#: start_s/end_s) legitimately differ run to run
_OBSERVED_ATTRS = frozenset({"ready_at", "launched_at", "worker"})


def _logical_attrs(span: Span) -> tuple:
    """Attributes that must match between scheduler modes.

    Everything the engine records is logical (bytes, records, counts);
    values are rendered with ``repr`` so heterogeneous types sort.
    Observed attributes (:data:`_OBSERVED_ATTRS`) are erased alongside
    span timings.
    """
    return tuple(sorted(
        (key, repr(value)) for key, value in span.attrs.items()
        if key not in _OBSERVED_ATTRS))


#: kinds :func:`logical_tree` leaves out by default (see its docstring)
_NON_LOGICAL_KINDS = frozenset({"cache", "gauge"})


def logical_tree(spans, exclude_kinds=_NON_LOGICAL_KINDS) -> tuple:
    """Canonical nested form of a span list, timings and ids erased.

    Two runs of the same job — serial and threaded — must produce equal
    logical trees: same names, kinds, parent edges, and attributes,
    whatever order the executor pool finished tasks in. Children are
    sorted by their own canonical form, so completion order is
    irrelevant.

    ``cache`` annotations are excluded by default: two tasks racing for
    the same uncached block both record a miss under threading where
    the serial run records one miss and one hit — a real scheduling
    difference, not a logical one (the compute-lock still guarantees
    the block is computed once). So are ``gauge`` events: cache and shm
    residency are observations of the cluster, not of the job's logic.
    """
    spans = [span for span in spans if span.kind not in exclude_kinds]
    children = {}
    by_id = {span.span_id: span for span in spans}
    roots = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)

    def node(span: Span) -> tuple:
        kids = tuple(sorted(
            node(child) for child in children.get(span.span_id, ())))
        return (span.kind, span.name, _logical_attrs(span), kids)

    return tuple(sorted(node(root) for root in roots))


# ----------------------------------------------------------------------
# job profiles
# ----------------------------------------------------------------------

class StageProfile:
    """Aggregated view of one stage-like span and its task children.

    ``kind`` is ``"shuffle"`` for a map stage and ``"result"`` for a
    job's result stage (its span's ``stage_kind``)."""

    __slots__ = ("name", "kind", "wall_s", "num_tasks", "task_times",
                 "records", "bytes")

    def __init__(self, name, kind, wall_s, num_tasks, task_times,
                 records, nbytes):
        self.name = name
        self.kind = kind
        self.wall_s = wall_s
        self.num_tasks = num_tasks
        self.task_times = task_times
        self.records = records
        self.bytes = nbytes

    @property
    def max_task_s(self) -> float:
        return max(self.task_times) if self.task_times else 0.0

    @property
    def mean_task_s(self) -> float:
        if not self.task_times:
            return 0.0
        return sum(self.task_times) / len(self.task_times)

    @property
    def skew(self) -> float:
        """max/mean task time — 1.0 is perfectly balanced."""
        mean = self.mean_task_s
        return self.max_task_s / mean if mean > 0 else 1.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "wall_s": self.wall_s,
            "num_tasks": self.num_tasks,
            "max_task_s": self.max_task_s,
            "mean_task_s": self.mean_task_s,
            "skew": self.skew,
            "records": self.records,
            "bytes": self.bytes,
        }


class JobProfile:
    """Everything a finished job's span tree says about it."""

    def __init__(self, job_span, stages, critical_path_s, critical_path,
                 utilization_timeline, chunk_modes, rank_queries,
                 num_executors):
        self.job_span = job_span
        self.stages = stages
        self.critical_path_s = critical_path_s
        self.critical_path = critical_path
        self.utilization_timeline = utilization_timeline
        self.chunk_modes = chunk_modes
        self.rank_queries = rank_queries
        self.num_executors = num_executors

    @property
    def name(self) -> str:
        return self.job_span.name

    @property
    def wall_s(self) -> float:
        return self.job_span.wall_s

    @property
    def busy_task_s(self) -> float:
        return sum(sum(stage.task_times) for stage in self.stages)

    @property
    def utilization(self) -> float:
        denominator = self.wall_s * max(self.num_executors or 1, 1)
        return self.busy_task_s / denominator if denominator > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "job": self.name,
            "wall_s": self.wall_s,
            "num_executors": self.num_executors,
            "utilization": self.utilization,
            "stages": [stage.as_dict() for stage in self.stages],
            "critical_path_s": self.critical_path_s,
            "critical_path": self.critical_path,
            "utilization_timeline": self.utilization_timeline,
            "chunk_modes": self.chunk_modes,
            "rank_queries": self.rank_queries,
        }

    def render(self) -> str:
        """The ``stage_breakdown``-style report, grown three sections:
        critical path, chunk-mode attribution, and rank queries."""
        from repro.engine.explain import stage_breakdown

        lines = [
            f"Job {self.name!r} — wall {self.wall_s * 1e3:.2f} ms, "
            f"{self.num_executors or '?'} executors, "
            f"utilization {self.utilization * 100:.0f}%",
            stage_breakdown(self.stages),
        ]
        if self.critical_path:
            hops = " -> ".join(self.critical_path)
            lines.append(
                f"  critical path: {self.critical_path_s * 1e3:.2f} ms "
                f"({hops})")
        skewed = [stage for stage in self.stages if stage.task_times]
        if skewed:
            worst = max(skewed, key=lambda stage: stage.skew)
            lines.append(
                f"  task skew: worst stage {worst.name!r} "
                f"max/mean = {worst.skew:.2f}")
        moved = [stage for stage in self.stages
                 if stage.records or stage.bytes]
        for stage in moved:
            lines.append(
                f"  {stage.kind} {stage.name!r}: "
                f"{stage.records:,} records / {stage.bytes:,} bytes")
        if self.chunk_modes:
            parts = ", ".join(
                f"{mode} {stats['chunks']} chunks / "
                f"{stats['payload_bytes']:,} B"
                for mode, stats in sorted(self.chunk_modes.items()))
            lines.append(f"  chunk modes: {parts}")
        if any(self.rank_queries.values()):
            parts = ", ".join(
                f"{name} {count:,}"
                for name, count in sorted(self.rank_queries.items())
                if count)
            lines.append(f"  rank queries: {parts}")
        if self.utilization_timeline:
            cells = " ".join(
                f"{int(round(util * 100)):3d}"
                for _offset, util in self.utilization_timeline)
            lines.append(f"  utilization timeline (%): {cells}")
        return "\n".join(lines)


def _utilization_timeline(job_span, task_spans, num_executors,
                          buckets: int = _TIMELINE_BUCKETS) -> list:
    """``(offset_s, utilization)`` buckets over the job's duration."""
    wall = job_span.wall_s
    if wall <= 0 or not task_spans:
        return []
    width = wall / buckets
    busy = [0.0] * buckets
    for span in task_spans:
        lo = span.start_s - job_span.start_s
        hi = span.end_s - job_span.start_s
        first = max(0, min(buckets - 1, int(lo / width)))
        last = max(0, min(buckets - 1, int(hi / width)))
        for index in range(first, last + 1):
            bucket_lo = index * width
            bucket_hi = bucket_lo + width
            overlap = min(hi, bucket_hi) - max(lo, bucket_lo)
            if overlap > 0:
                busy[index] += overlap
    denominator = width * max(num_executors or 1, 1)
    return [
        (round(index * width, 9), min(busy[index] / denominator, 1.0))
        for index in range(buckets)
    ]


def _descendants(span_id, children) -> list:
    out = []
    frontier = list(children.get(span_id, ()))
    while frontier:
        span = frontier.pop()
        out.append(span)
        frontier.extend(children.get(span.span_id, ()))
    return out


def profiles_from_spans(spans, num_executors=None) -> list:
    """Fold a span list into one :class:`JobProfile` per job span.

    Works identically on live tracer output and on spans re-loaded from
    a JSON-lines event log — the ``repro trace`` CLI is exactly this
    function over :func:`load_jsonl`.
    """
    spans = sorted(spans, key=lambda span: span.span_id)
    children = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)

    profiles = []
    for job in spans:
        if job.kind != "job":
            continue
        executors = job.attrs.get("executors", num_executors)
        stage_spans = [
            span for span in children.get(job.span_id, ())
            if span.kind in STAGE_LIKE_KINDS
        ]
        stage_spans.sort(key=lambda span: span.start_s)
        stages = []
        critical_path_s = 0.0
        critical_path = []
        all_tasks = []
        for stage_span in stage_spans:
            tasks = [span for span in children.get(stage_span.span_id, ())
                     if span.kind == "task"]
            tasks.sort(key=lambda span: span.attrs.get("partition", 0))
            all_tasks.extend(tasks)
            records = stage_span.attrs.get("records", 0)
            nbytes = stage_span.attrs.get("bytes", 0)
            if not records:
                records = sum(task.attrs.get("records", 0)
                              for task in tasks)
            if not nbytes:
                nbytes = sum(task.attrs.get("bytes", 0) +
                             task.attrs.get("result_bytes", 0)
                             for task in tasks)
            stages.append(StageProfile(
                stage_span.name,
                stage_span.attrs.get("stage_kind", stage_span.kind),
                stage_span.wall_s,
                len(tasks) or stage_span.attrs.get("num_tasks", 0),
                [task.wall_s for task in tasks], records, nbytes))
            if tasks:
                slowest = max(tasks, key=lambda span: span.wall_s)
                critical_path_s += slowest.wall_s
                critical_path.append(
                    f"{stage_span.name}/task"
                    f"[{slowest.attrs.get('partition', '?')}]")
            else:
                critical_path_s += stage_span.wall_s
                critical_path.append(stage_span.name)

        chunk_modes = {}
        rank_queries = {}
        for span in _descendants(job.span_id, children):
            if span.kind != "plan":
                continue
            for mode in ("dense", "sparse", "super_sparse"):
                count = span.attrs.get(f"chunks_{mode}", 0)
                nbytes = span.attrs.get(f"payload_bytes_{mode}", 0)
                if count or nbytes:
                    stats = chunk_modes.setdefault(
                        mode, {"chunks": 0, "payload_bytes": 0})
                    stats["chunks"] += count
                    stats["payload_bytes"] += nbytes
            for name, value in span.attrs.items():
                if name.endswith("_rank"):
                    rank_queries[name] = rank_queries.get(name, 0) + value

        profiles.append(JobProfile(
            job, stages, critical_path_s, critical_path,
            _utilization_timeline(job, all_tasks, executors),
            chunk_modes, rank_queries, executors))
    return profiles


# ----------------------------------------------------------------------
# exporters and the event-log loader
# ----------------------------------------------------------------------

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


def export_jsonl(spans, path: str, num_executors=None) -> None:
    """Write a JSON-lines event log: one meta line, one line per span."""
    with open(path, "w", encoding="utf-8") as handle:
        meta = {"type": "meta", "format": TRACE_FORMAT,
                "version": TRACE_VERSION}
        if num_executors is not None:
            meta["num_executors"] = num_executors
        handle.write(json.dumps(meta) + "\n")
        for span in spans:
            record = span.as_dict()
            record["type"] = "span"
            handle.write(json.dumps(record) + "\n")


def load_jsonl(path: str):
    """``(meta, spans)`` from an event log written by :func:`export_jsonl`.

    Raises ``ValueError`` unless the first line is a ``repro-trace`` v1
    meta line.
    """
    meta = None
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if meta is None:
                meta = record if record.get("type") == "meta" else {}
                if (meta.get("format"), meta.get("version")) != \
                        (TRACE_FORMAT, TRACE_VERSION):
                    raise ValueError(
                        f"{path}: not a {TRACE_FORMAT} v{TRACE_VERSION} "
                        f"log (format={meta.get('format')!r}, "
                        f"version={meta.get('version')!r})")
            elif record.get("type") == "span":
                spans.append(Span.from_dict(record))
    if meta is None:
        raise ValueError(f"{path}: empty, not a {TRACE_FORMAT} log")
    return meta, spans


def export_chrome_trace(spans, path: str) -> None:
    """Write Chrome's ``trace_event`` JSON (load via chrome://tracing
    or https://ui.perfetto.dev): complete ("X") events with
    microsecond timestamps, one tid per engine thread."""
    spans = sorted(spans, key=lambda span: span.span_id)
    origin = min((span.start_s for span in spans), default=0.0)
    tids = {}
    events = []
    for span in spans:
        tid = tids.setdefault(span.thread, len(tids) + 1)
        events.append({
            "name": f"{span.kind}:{span.name}",
            "cat": span.kind,
            "ph": "X",
            "ts": round((span.start_s - origin) * 1e6, 3),
            "dur": round(max(span.wall_s, 0.0) * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": dict(span.attrs),
        })
    for thread, tid in tids.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": thread},
        })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ms"}, handle, indent=1)
