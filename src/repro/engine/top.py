"""``repro top LOG`` — one dashboard frame from a recorded trace.

Reads a ``repro-trace`` event log (:func:`repro.engine.tracing.load_jsonl`,
written by ``ctx.tracer.export_jsonl``): sparkline series for memory /
tasks / shuffle from the ``gauge`` event closing each job, per-worker
rows from the last of them, and the ``health`` spans as the event list.

Pure stdlib; the renderer takes a span list and returns a string, so
tests never need a terminal.
"""

from __future__ import annotations

import os
import sys

from repro.engine.metrics import METRICS_BY_NAME
from repro.engine.tracing import load_jsonl

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
    events = [span for span in spans if span.kind == "health"]
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

    workers = last.get("workers", {})
    if workers:
        lines.append(f"[workers]  alive "
                     f"{sum(1 for row in workers.values() if row['alive'])}"
                     f"/{len(workers)}")
        lines.append("  pid        state  tasks   last task")
        for pid, row in sorted(workers.items(),
                               key=lambda kv: int(kv[0])):
            state = "up" if row["alive"] else "DEAD"
            last_task = row.get("last_task_s")
            last_text = f"{last_task * 1e3:.1f} ms" \
                if last_task is not None else "-"
            lines.append(f"  {pid:<10} {state:<6} {row['tasks']:<7}"
                         f" {last_text}")
        lines.append("")

    lines.append(f"[health] {'WARN' if events else 'OK'}  "
                 f"({len(events)} events)")
    origin = spans[0].start_s if spans else 0.0
    for span in events[-8:]:
        lines.append(
            f"  [{span.attrs.get('severity', '?'):<7}] "
            f"{span.name:<26} +{span.start_s - origin:8.3f}s  "
            f"{span.attrs.get('message', '')}")
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
