"""Query-plan explanation: DAG → stages, the way Spark's UI shows them.

``explain(rdd)`` renders the stage plan a DAGScheduler would build:
narrow transformations pipeline inside a stage; every wide dependency
(a shuffle that actually moves data) starts a new one. Narrowed
shuffles — co-partitioned joins, the local-join matmul — stay inside
their stage, which makes the effect of Spangle's partitioning
optimizations directly visible in the plan.

Chunk-kernel fusion (:mod:`repro.core.plan`) is visible here too: a
compiled ChunkPlan appears as a single RDD named after its pipeline —
``fused[filter→map→mask_and]`` — where the eager path would show one
RDD hop per operator. :func:`fused_pipelines` extracts those labels.

This module renders the *physical* half of ``ArrayRDD.explain()``: the
pending plan and the rewrites made while it was built live in
:mod:`repro.core.plan`; what it compiles to is the RDD graph staged
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.metrics import COUNTERS
from repro.engine.rdd import RDD

#: catalog layers whose counters :func:`stage_breakdown` appends when
#: they moved — the ones that say why a job ran differently
REPORT_LAYERS = ("core.optimizer", "engine.worker", "engine.shm")


def _counter_cells(counters: dict, layers, moved_only: bool = False):
    """``name: value`` cells for the catalog counters of ``layers``."""
    return [f"{metric.name}: {counters.get(metric.name, 0):,}"
            + (" B" if metric.unit == "bytes" else "")
            for metric in COUNTERS if metric.layer in layers
            and (counters.get(metric.name) or not moved_only)]


def _counter_lines(counters: dict, layers) -> list:
    """Report lines of four counter cells each."""
    cells = _counter_cells(counters, layers)
    return ["  " + "   ".join(cells[i:i + 4])
            for i in range(0, len(cells), 4)]


@dataclass
class Stage:
    """One pipelined stage: the RDDs it computes and its inputs."""

    stage_id: int
    rdds: list = field(default_factory=list)
    parent_stages: list = field(default_factory=list)

    @property
    def boundary(self) -> str:
        return self.rdds[0].name if self.rdds else "?"


def _wide_parents(rdd: RDD):
    """(narrow_parents, wide_parents) of one RDD."""
    narrow, wide = [], []
    wide_slots = rdd.wide_slots()
    for which, parent in enumerate(rdd.dependencies):
        (wide if which in wide_slots else narrow).append(parent)
    return narrow, wide


def stage_plan(rdd: RDD) -> list:
    """Stages in execution order (result stage last)."""
    stages = []
    stage_of = {}

    def build(node: RDD) -> Stage:
        if node.rdd_id in stage_of:
            return stage_of[node.rdd_id]
        stage = Stage(stage_id=0)
        stage_of[node.rdd_id] = stage
        frontier = [node]
        while frontier:
            current = frontier.pop()
            stage.rdds.append(current)
            narrow, wide = _wide_parents(current)
            for parent in narrow:
                if parent.rdd_id not in stage_of:
                    stage_of[parent.rdd_id] = stage
                    frontier.append(parent)
            for parent in wide:
                parent_stage = build(parent)
                if parent_stage not in stage.parent_stages:
                    stage.parent_stages.append(parent_stage)
        stages.append(stage)
        return stage

    build(rdd)
    for index, stage in enumerate(stages):
        stage.stage_id = index
    return stages


def count_stages(rdd: RDD) -> int:
    return len(stage_plan(rdd))


def fused_pipelines(rdd: RDD) -> list:
    """``fused[...]`` pipeline labels in the plan, execution-stage order.

    Each label names one compiled
    :class:`~repro.core.plan.ChunkPlan` — a chain of chunk-local
    kernels the scheduler runs as a single ``map_partitions`` pass.
    """
    labels = []
    for stage in stage_plan(rdd):
        for node in reversed(stage.rdds):
            if node.name.startswith("fused["):
                labels.append(node.name)
    return labels


def task_time_histogram(task_times, bins: int = 10) -> list:
    """``(lo_s, hi_s, count)`` buckets over a list of task durations."""
    if not task_times:
        return []
    lo, hi = min(task_times), max(task_times)
    if hi <= lo:
        return [(lo, hi, len(task_times))]
    counts, edges = np.histogram(task_times, bins=bins, range=(lo, hi))
    return [(float(edges[i]), float(edges[i + 1]), int(count))
            for i, count in enumerate(counts)]


def stage_breakdown(stages, counters=None) -> str:
    """A printable table of executed-stage wall times and a histogram
    of their task durations.

    ``stages`` holds :class:`~repro.engine.tracing.StageProfile` s: a
    ``JobProfile``'s or those ``ClusterContext.measure`` read off a
    traced context. With ``counters`` (a
    :class:`~repro.engine.metrics.MetricsSnapshot` or its ``as_dict()``)
    the counters of the :data:`REPORT_LAYERS` that moved — optimizer
    rewrites, worker respawns and retries, shm traffic — follow.
    """
    if not stages:
        return "(no stages executed)"
    rows = []
    total = sum(stage.wall_s for stage in stages)
    for index, stage in enumerate(stages):
        mean_ms = stage.wall_s / max(stage.num_tasks, 1) * 1e3
        share = stage.wall_s / total * 100 if total > 0 else 0.0
        rows.append(
            f"  stage {index:<3} {stage.kind:<10} {stage.name:<20} "
            f"{stage.wall_s * 1e3:9.2f} ms  {stage.num_tasks:4d} tasks  "
            f"{mean_ms:8.3f} ms/task  {share:5.1f}%")
    lines = ["Stage breakdown"]
    lines.extend(rows)
    lines.append(f"  total stage wall time: {total * 1e3:.2f} ms")
    histogram = task_time_histogram(
        [duration for stage in stages for duration in stage.task_times],
        bins=8)
    if histogram:
        buckets = "  ".join(
            f"[{lo * 1e3:.2f}-{hi * 1e3:.2f}ms]x{count}"
            for lo, hi, count in histogram if count)
        lines.append(f"  task times: {buckets}")
    if counters is not None:
        if not isinstance(counters, dict):
            counters = counters.as_dict()
        moved = _counter_cells(counters, REPORT_LAYERS, moved_only=True)
        if moved:
            lines.append("  counters: " + "   ".join(moved))
    return "\n".join(lines)


def memory_report(context) -> str:
    """A printable report of the context's memory tier.

    One line each for the cache ledger (resident bytes against the
    budget, block counts) and the spill tier (blocks on disk and their
    encoded bytes); then the catalog counters of the ``engine.storage``
    layer (hits, evictions, spills, reloads, density repacking) and of
    ``core.optimizer``; then the shared-memory plane (the process
    backend's block-exchange tier): live segments and their bytes, and
    the ``engine.shm`` and ``engine.worker`` counters — segments
    created, bytes mapped, worker respawns and task retries.
    """
    cache = context.cache
    counters = context.metrics.snapshot().as_dict()
    budget = cache.budget_bytes
    budget_text = f"{budget:,} B" if budget is not None else "unbounded"
    lines = [
        "Memory report",
        f"  budget: {budget_text}",
        f"  resident: {cache.used_bytes():,} B in "
        f"{cache.block_count()} blocks",
        f"  spilled:  {cache.spilled_bytes():,} B in "
        f"{cache.spilled_count()} blocks",
    ]
    lines += _counter_lines(counters, ("engine.storage",))
    lines += _counter_lines(counters, ("core.optimizer",))
    registry = context.shm_registry
    lines.append(
        f"  backend: {context.backend}   shm resident: "
        f"{registry.resident_bytes():,} B in "
        f"{registry.segment_count()} segments")
    lines += _counter_lines(counters, ("engine.shm", "engine.worker"))
    return "\n".join(lines)


def explain(rdd: RDD) -> str:
    """A printable stage plan."""
    lines = []
    for stage in stage_plan(rdd):
        parents = ", ".join(
            f"stage {p.stage_id}" for p in stage.parent_stages)
        dependency = f"  <- shuffle from {parents}" if parents else ""
        lines.append(f"Stage {stage.stage_id}{dependency}")
        for node in reversed(stage.rdds):
            marker = " [cached]" if node._cached_indices or (
                node.storage_level.value != "none") else ""
            lines.append(
                f"  ({node.rdd_id}) {node.name}"
                f"[{node.num_partitions}]{marker}")
    return "\n".join(lines)
