"""``repro top`` — a live terminal dashboard over the telemetry plane.

Renders one frame from a telemetry snapshot dict (the shape served at
``/telemetry.json`` and rebuilt from recorded JSONL by
:func:`repro.engine.telemetry.snapshot_from_records`): sparkline
series for memory / tasks / shuffle, pool occupancy, per-worker rows,
and the most recent health events. Two sources:

- **live** — ``repro top http://127.0.0.1:9100`` polls the endpoint a
  running ``ctx.serve_telemetry()`` exposes, redrawing every interval;
- **replay** — ``repro top run.telemetry.jsonl`` folds a recorded
  sink file back into series and renders the final frame (the
  ``--replay`` flag is the non-interactive CI smoke spelling).

Pure stdlib; the renderer takes a dict and returns a string, so tests
never need a terminal or a socket.
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.error
import urllib.request

from repro.engine.metrics import METRICS_BY_NAME
from repro.engine.telemetry import load_telemetry_jsonl, point_rates

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


def render_dashboard(snapshot: dict, width: int = 40,
                     now=None) -> str:
    """One dashboard frame from a ``/telemetry.json``-shaped dict."""
    now = time.time() if now is None else now
    meta = snapshot.get("meta", {})
    series = snapshot.get("series", {})
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    health = snapshot.get("health", {})
    lines = []

    backend = meta.get("backend", "?")
    up = snapshot.get("up_s")
    stamp = snapshot.get("t")
    age = f"{now - stamp:.1f}s ago" if stamp else "no samples"
    head = (f"repro top — backend={backend} "
            f"executors={meta.get('num_executors', '?')} ")
    if up is not None:
        head += (f"interval={meta.get('interval_s', '?')}s "
                 f"samples={snapshot.get('num_samples', 0)} up={up:.1f}s ")
    lines.append(head + f"(last sample {age})")
    lines.append(
        f"jobs={counters.get('jobs_run', 0)} "
        f"stages={counters.get('stages_run', 0)} "
        f"tasks={counters.get('tasks_launched', 0)} "
        f"shuffles={counters.get('shuffles_performed', 0)} "
        f"respawns={counters.get('worker_respawns', 0)}")
    lines.append("")

    for section, specs in DASHBOARD_SERIES:
        lines.append(f"[{section}]")
        for name, label in specs:
            metric = METRICS_BY_NAME[name]
            as_rate = metric.kind == "counter"
            style = "bytes" if metric.unit == "bytes" else \
                "rate" if as_rate else "plain"
            if as_rate:
                values = [value for _t, value in
                          point_rates(series.get(f"counter.{name}", []))]
                latest = values[-1] if values else None
            else:
                values = [value for _t, value in series.get(name, [])]
                latest = values[-1] if values else gauges.get(name)
            lines.append(
                f"  {label:<10} {sparkline(values, width)} "
                f"{_format_value(latest, style):>12}")
        lines.append("")

    workers = snapshot.get("workers", {})
    if workers:
        lines.append(f"[workers]  alive "
                     f"{sum(1 for row in workers.values() if row.get('alive'))}"
                     f"/{len(workers)}")
        lines.append("  pid        state  tasks   last task")
        for pid, row in sorted(workers.items(),
                               key=lambda kv: int(kv[0])):
            state = "up" if row.get("alive") else "DEAD"
            last = row.get("last_task_s")
            last_text = f"{last * 1e3:.1f} ms" if last is not None \
                else "-"
            lines.append(f"  {pid:<10} {state:<6} {row.get('tasks', 0):<7}"
                         f" {last_text}")
        lines.append("")

    status = health.get("status", "ok")
    events = health.get("events", [])
    lines.append(f"[health] {status.upper()}  ({len(events)} events)")
    for event in events[-8:]:
        age_s = now - event.get("t", now)
        lines.append(
            f"  [{event.get('severity', '?'):<7}] "
            f"{event.get('rule', '?'):<26} {age_s:7.1f}s ago  "
            f"{event.get('message', '')}")
    if not events:
        lines.append("  (no health events)")
    return "\n".join(lines)


def fetch_snapshot(url: str, timeout: float = 5.0) -> dict:
    """GET the JSON snapshot from a live telemetry endpoint."""
    if not url.rstrip("/").endswith("/telemetry.json"):
        url = url.rstrip("/") + "/telemetry.json"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def run_top(source: str, interval: float = 1.0, once: bool = False,
            replay: bool = False, out=None) -> int:
    """The ``repro top`` command body.

    ``source`` is a live endpoint (``http://...``) or a recorded
    telemetry JSONL path. Files always render a single (final) frame;
    live endpoints redraw every ``interval`` seconds until
    interrupted, or once with ``once``/``replay``.
    """
    try:
        return _run_top(source, interval=interval, once=once,
                        replay=replay, out=out)
    except BrokenPipeError:
        # a pager/`head` closed the pipe — the normal way to skim a
        # dashboard; park stdout on devnull so the interpreter's exit
        # flush cannot raise again, and exit cleanly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _run_top(source: str, interval: float, once: bool,
             replay: bool, out) -> int:
    out = sys.stdout if out is None else out
    live = source.startswith(("http://", "https://"))
    if not live:
        try:
            snapshot = load_telemetry_jsonl(source)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot read telemetry log {source!r}: {exc}",
                  file=sys.stderr)
            return 2
        if not snapshot.get("num_samples"):
            print(f"{source}: no samples recorded", file=sys.stderr)
            return 1
        print(render_dashboard(snapshot), file=out)
        return 0
    del replay  # only meaningful for files; harmless on endpoints
    try:
        while True:
            try:
                snapshot = fetch_snapshot(source)
            except (urllib.error.URLError, OSError, ValueError) as exc:
                print(f"cannot reach {source!r}: {exc}",
                      file=sys.stderr)
                return 2
            if not once:
                out.write("\x1b[2J\x1b[H")  # clear screen, home cursor
            print(render_dashboard(snapshot), file=out)
            if once:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
