"""``repro top LOG`` — one dashboard frame from a recorded trace.

Reads a ``repro-trace`` event log (:func:`repro.engine.tracing.load_jsonl`,
written by ``ctx.tracer.export_jsonl``): sparkline series for memory /
tasks / shuffle from the ``gauge`` event closing each job, per-worker
rows from the task spans the process backend names a ``worker`` pid
on, and the health events :func:`health_events` reads from both.

Health is a read of the trace: the same span list, live or replayed
from the log, gives the same events. Pure stdlib; the renderer takes a
span list and returns a string, so tests never need a terminal.
"""

from __future__ import annotations

import os
import sys

from repro.engine.metrics import METRICS_BY_NAME
from repro.engine.tracing import load_jsonl, profiles_from_spans

#: eight levels + blank — the classic terminal sparkline ramp
SPARK_CHARS = " ▁▂▃▄▅▆▇█"

#: the catalog metrics each dashboard section sparklines, with their
#: row labels; counters draw as per-second rates, byte units as bytes
DASHBOARD_SERIES = (
    ("memory", (("cache.resident_bytes", "resident"),
                ("cache.spilled_bytes", "spilled"),
                ("shm.resident_bytes", "shm"))),
    ("tasks", (("tasks_launched", "tasks/s"),
               ("pool.busy_threads", "busy"),
               ("pool.queued_tasks", "queued"),
               ("scheduler.ready_stages", "ready"),
               ("scheduler.inflight_stages", "inflight"))),
    ("shuffle", (("shuffle_bytes", "bytes/s"),
                 ("shuffle_records", "recs/s"),
                 ("cache_spills", "spills/s"),
                 ("nnz.imbalance", "nnz skew"))),
)


#: health thresholds: cache resident bytes over the budget, spills per
#: second between consecutive samples, max/mean partition nnz, and
#: max/mean task time of a stage of at least two tasks
WATERMARK = 0.9
SPILLS_PER_SECOND = 5.0
NNZ_IMBALANCE = 4.0
TASK_SKEW = 4.0


def _violations(sample, previous, stages):
    """``(key, value, message)`` per condition ``sample`` violates;
    ``previous`` is the sample before it (None for the first) and
    ``stages`` the :class:`~repro.engine.tracing.StageProfile` s of the
    job the sample closed."""
    gauges, counters = sample["gauges"], sample["counters"]
    budget = gauges.get("cache.budget_bytes")
    resident = gauges.get("cache.resident_bytes", 0)
    if budget and resident > WATERMARK * budget:
        yield ("ledger_high_watermark", resident / budget,
               f"cache ledger at {resident / budget:.0%} of its "
               f"{budget:,} B budget")
    imbalance = gauges.get("nnz.imbalance")
    if imbalance is not None and imbalance >= NNZ_IMBALANCE:
        yield ("nnz_imbalance", imbalance,
               f"nnz load skewed {imbalance:.1f}x (max/mean partition "
               f"nnz)")
    if previous is not None and sample["t"] > previous["t"]:
        rate = ((counters.get("cache_spills", 0)
                 - previous["counters"].get("cache_spills", 0))
                / (sample["t"] - previous["t"]))
        if rate > SPILLS_PER_SECOND:
            yield ("spill_rate_spike", rate,
                   f"spilling {rate:.1f} blocks/s")
    respawns = counters.get("worker_respawns", 0) - (
        previous["counters"].get("worker_respawns", 0) if previous else 0)
    if respawns > 0:
        yield ("worker_respawn", respawns,
               f"worker pool respawned {respawns} time(s)")
    for stage in stages:
        if len(stage.task_times) >= 2 and stage.skew >= TASK_SKEW:
            yield (f"shuffle_skew:{stage.name}", stage.skew,
                   f"stage {stage.name!r} skewed {stage.skew:.1f}x "
                   f"(max/mean task time)")


def health_events(spans) -> list:
    """The health events a trace's spans record, oldest first.

    Each ``gauge`` sample is checked against the thresholds above,
    together with the sample before it and the stages of the job it
    closed (read from :func:`~repro.engine.tracing.profiles_from_spans`).
    A condition fires once on the transition into violation: none while
    it holds, a new event after it clears and returns. An event is
    ``{"rule", "value", "message", "at"}``, ``at`` the sample span's
    start.
    """
    spans = sorted(spans, key=lambda span: span.span_id)
    stages = {profile.job_span.span_id: profile.stages
              for profile in profiles_from_spans(spans)}
    events = []
    active = set()
    previous = None
    for span in spans:
        if span.kind != "gauge":
            continue
        found = set()
        for key, value, message in _violations(
                span.attrs, previous, stages.get(span.parent_id, ())):
            found.add(key)
            if key not in active:
                events.append({"rule": key.split(":")[0], "value": value,
                               "message": message, "at": span.start_s})
        active = found
        previous = span.attrs
    return events


def sparkline(values, width: int = 40) -> str:
    """Scale ``values`` into a fixed-width run of block characters."""
    values = [float(v) for v in values]
    if not values:
        return " " * width
    if len(values) > width:
        # keep the most recent points — top is about "now"
        values = values[-width:]
    lo, hi = min(values), max(values)
    span = hi - lo
    levels = len(SPARK_CHARS) - 1
    chars = []
    for value in values:
        if span <= 0:
            chars.append(SPARK_CHARS[1] if hi > 0 else SPARK_CHARS[0])
        else:
            chars.append(
                SPARK_CHARS[1 + int((value - lo) / span * (levels - 1))])
    return "".join(chars).rjust(width)


def _point_rates(points) -> list:
    """Per-second deltas between consecutive ``(t, value)`` points of a
    cumulative series."""
    return [(v1 - v0) / (t1 - t0) if t1 > t0 else 0.0
            for (t0, v0), (t1, v1) in zip(points, points[1:])]


def _format_bytes(value) -> str:
    value = float(value)
    if abs(value) < 1024:
        return f"{value:,.0f} B"
    for unit in ("KiB", "MiB", "GiB"):
        value /= 1024
        if abs(value) < 1024 or unit == "GiB":
            return f"{value:,.1f} {unit}"


def _format_value(value, style: str) -> str:
    if value is None:
        return "-"
    if style == "bytes":
        return _format_bytes(value)
    if style == "rate":
        return f"{value:,.1f}/s"
    return f"{value:,.0f}"


def render_dashboard(spans, meta=None, width: int = 40) -> str:
    """One dashboard frame from a trace's spans."""
    meta = meta or {}
    spans = sorted(spans, key=lambda span: span.span_id)
    samples = [span.attrs for span in spans if span.kind == "gauge"]
    events = health_events(spans)
    last = samples[-1] if samples else {}
    counters = last.get("counters", {})
    lines = [f"repro top — executors={meta.get('num_executors', '?')} "
             f"samples={len(samples)}",
             f"jobs={counters.get('jobs_run', 0)} "
             f"stages={counters.get('stages_run', 0)} "
             f"tasks={counters.get('tasks_launched', 0)} "
             f"shuffles={counters.get('shuffles_performed', 0)} "
             f"respawns={counters.get('worker_respawns', 0)}",
             ""]

    for section, specs in DASHBOARD_SERIES:
        lines.append(f"[{section}]")
        for name, label in specs:
            metric = METRICS_BY_NAME[name]
            if metric.kind == "counter":
                style = "rate"
                values = _point_rates([(sample["t"], sample["counters"][name])
                                       for sample in samples])
            else:
                style = "bytes" if metric.unit == "bytes" else "plain"
                values = [sample["gauges"][name] for sample in samples
                          if name in sample["gauges"]]
            latest = values[-1] if values else None
            lines.append(
                f"  {label:<10} {sparkline(values, width)} "
                f"{_format_value(latest, style):>12}")
        lines.append("")

    workers = {}   # pid -> (tasks, last task span)
    for span in spans:
        pid = span.attrs.get("worker") if span.kind == "task" else None
        if pid is not None:
            tasks, _last = workers.get(pid, (0, None))
            workers[pid] = (tasks + 1, span)
    if workers:
        lines.append(f"[workers]  {len(workers)} pids")
        lines.append("  pid        tasks   last task")
        for pid, (tasks, span) in sorted(workers.items()):
            lines.append(f"  {pid:<10} {tasks:<7} "
                         f"{span.wall_s * 1e3:.1f} ms")
        lines.append("")

    lines.append(f"[health] {'WARN' if events else 'OK'}  "
                 f"({len(events)} events)")
    origin = spans[0].start_s if spans else 0.0
    for event in events[-8:]:
        lines.append(f"  {event['rule']:<26} "
                     f"+{event['at'] - origin:8.3f}s  {event['message']}")
    if not events:
        lines.append("  (no health events)")
    return "\n".join(lines)


def run_top(path: str, out=None) -> int:
    """The ``repro top`` command body: 0 on a rendered frame, 1 when
    the log holds no gauge sample, 2 when it cannot be read."""
    out = sys.stdout if out is None else out
    try:
        meta, spans = load_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace log {path!r}: {exc}", file=sys.stderr)
        return 2
    if not any(span.kind == "gauge" for span in spans):
        print(f"{path}: no gauge samples recorded (was the context "
              f"traced?)", file=sys.stderr)
        return 1
    try:
        print(render_dashboard(spans, meta), file=out)
    except BrokenPipeError:
        # a pager/`head` closed the pipe — the normal way to skim a
        # frame; park stdout on devnull so the interpreter's exit
        # flush cannot raise again, and exit cleanly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0
