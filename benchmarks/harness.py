"""Shared helpers for the figure/table reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper's
evaluation: it runs the same workload on every system, prints the same
rows/series the paper reports, and *asserts the shape* of the result —
who wins, roughly by how much, where the crossover falls. Absolute
numbers are not comparable (the substrate is an in-process simulator,
not the authors' nine-node cluster), so each row reports both measured
wall-clock and the cost-model's modeled cluster time.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from repro.engine import ClusterContext


@dataclass
class Measured:
    """One cell of a result table."""

    value: object
    wall_s: float
    modeled_s: float
    failed: str = None
    network_s: float = 0.0
    scheduling_s: float = 0.0
    disk_s: float = 0.0
    shuffle_bytes: int = 0
    stage_timings: list = None
    utilization: float = 0.0

    def cell(self) -> str:
        if self.failed:
            return f"x ({self.failed})"
        return f"{self.wall_s:.3f}s / {self.modeled_s:.3f}s"

    def modeled_with_parallelism(self, ways: int) -> float:
        """Modeled time when the compute divides over ``ways`` workers.

        The engine executes tasks serially in-process, so measured wall
        time is the *total* compute; on a cluster it divides across
        executors while the network/scheduling/disk overheads do not.
        """
        return (self.wall_s / max(ways, 1) + self.network_s
                + self.scheduling_s + self.disk_s)


def run_measured(ctx: ClusterContext, fn, *args, **kwargs) -> Measured:
    """Run ``fn`` and capture wall time + modeled cluster time.

    Stage wall times and utilization come from the trace: they are
    empty and 0 unless ``ctx`` was built with ``trace=True``. A full
    garbage collection runs before the clock starts, so a collection
    left pending by setup (a dataset load) is not charged to ``fn``.
    Expected feasibility failures (OOM, bounded-time) become ``x`` cells
    — the paper's Fig. 10 marks — instead of propagating.
    """
    from repro.baselines.scidb import SciDBTimeout
    from repro.baselines.scispark import UnsupportedOperation
    from repro.errors import OutOfMemoryError, TaskFailure

    expected = (OutOfMemoryError, SciDBTimeout, UnsupportedOperation)
    gc.collect()
    with ctx.measure() as measurement:
        try:
            value = fn(*args, **kwargs)
            failed = None
        except expected as exc:
            value = None
            failed = type(exc).__name__
        except TaskFailure as exc:
            if isinstance(exc.cause, expected):
                value = None
                failed = type(exc.cause).__name__
            else:
                raise
    return Measured(value=value,
                    wall_s=measurement.wall_s,
                    modeled_s=measurement.report.modeled_s,
                    failed=failed,
                    network_s=measurement.report.network_s,
                    scheduling_s=measurement.report.scheduling_s,
                    disk_s=measurement.report.disk_s,
                    shuffle_bytes=measurement.delta.shuffle_bytes,
                    stage_timings=list(measurement.stage_timings),
                    utilization=measurement.utilization)


def print_stage_breakdown(title: str, measured: Measured) -> None:
    """Print the per-stage wall times captured by a measured run."""
    from repro.engine.explain import stage_breakdown

    print(f"\n--- {title} "
          f"(executor utilization {measured.utilization * 100:.0f}%) ---")
    print(stage_breakdown(measured.stage_timings or []))


def print_table(title: str, headers, rows) -> None:
    """Print an aligned ASCII table (the bench's 'paper figure')."""
    headers = [str(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "-+-".join("-" * w for w in widths)
    print(f"\n=== {title} ===")
    print(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print(line)
    for row in str_rows:
        print(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    print()


def timed(fn, *args, **kwargs):
    """Plain wall-clock timing: ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def fresh_context(num_executors: int = 8,
                  trace: bool = False) -> ClusterContext:
    return ClusterContext(num_executors=num_executors,
                          default_parallelism=num_executors,
                          trace=trace)


def write_trace_artifact(ctx: ClusterContext, json_path) -> dict:
    """Export a traced context's spans next to a benchmark JSON artifact.

    Writes ``<base>.trace.jsonl`` (replayable with ``repro trace``) and
    ``<base>.chrome.json`` (Chrome ``trace_event`` format) beside
    ``json_path``, and returns a summary dict for embedding in the
    benchmark JSON. Returns ``{}`` when the context was not traced.
    """
    import os

    from repro.engine.tracing import export_chrome_trace, export_jsonl

    spans = ctx.tracer.spans()
    if not spans:
        return {}
    base, _ = os.path.splitext(str(json_path))
    jsonl_path = base + ".trace.jsonl"
    chrome_path = base + ".chrome.json"
    export_jsonl(spans, jsonl_path, num_executors=ctx.num_executors)
    export_chrome_trace(spans, chrome_path)
    profiles = ctx.tracer.job_profiles()
    return {
        "event_log": os.path.basename(jsonl_path),
        "chrome_trace": os.path.basename(chrome_path),
        "num_spans": len(spans),
        "num_jobs": len(profiles),
        "jobs": [profile.as_dict() for profile in profiles],
    }
