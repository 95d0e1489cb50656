"""Scheduler scaling — serial vs the persistent-executor-pool path.

A shuffle-heavy numpy workload (per-record dense kernels feeding a
``reduce_by_key``) run twice on identical data: ``use_threads=False``
(the deterministic default) and ``use_threads=True`` (shuffle map
tasks and result tasks spread over the context's persistent executor
pool). numpy releases the GIL inside the kernels, so on a multi-core
host the threaded run overlaps map tasks and the wall-clock drops.

Shape claims: results are byte-identical between the two modes and the
logical metrics (stages, tasks, shuffle bytes) match exactly; on hosts
with >= 4 cores the threaded run is >= 1.5x faster. Per-stage wall
times and executor utilization are printed for both runs, and
``main()`` writes the stage-breakdown JSON artifact consumed by CI.
"""

from __future__ import annotations

import json
import os

import numpy as np

if __package__ in (None, ""):
    # allow `python benchmarks/test_scheduler_scaling.py` (the CI smoke
    # job) as well as `pytest benchmarks/`
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from benchmarks.harness import (
    print_stage_breakdown,
    print_table,
    run_measured,
    write_trace_artifact,
)
from repro.engine import ClusterContext

NUM_PARTITIONS = 8
RECORDS_PER_PARTITION = 3
BLOCK_CELLS = 400_000
KERNEL_PASSES = 4
NUM_KEYS = 4
SPEEDUP_TARGET = 1.5


def _make_rdd(ctx):
    """(key, dense block) records; the generator runs inside tasks."""

    def gen(index):
        rng = np.random.default_rng(1000 + index)
        return [
            (index % NUM_KEYS, rng.random(BLOCK_CELLS))
            for _ in range(RECORDS_PER_PARTITION)
        ]

    return ctx.generate(NUM_PARTITIONS, gen)


def _kernel(block):
    # single-threaded, GIL-releasing ufunc passes: the speedup must
    # come from the executor pool, not from a multi-threaded BLAS that
    # would accelerate the serial baseline too
    acc = block
    for _ in range(KERNEL_PASSES):
        acc = np.sqrt(acc * acc + 1.0)
    return float(acc.sum())


def _workload(ctx):
    """Heavy map kernel under a shuffle: the stage-parallel shape."""
    summed = (
        _make_rdd(ctx)
        .map_values(_kernel)
        .reduce_by_key(lambda a, b: a + b)
    )
    return sorted(summed.collect())


def _run_mode(use_threads):
    # traced: measure() reads stage and task wall times off the spans
    with ClusterContext(num_executors=4, default_parallelism=NUM_PARTITIONS,
                        use_threads=use_threads, trace=True) as ctx:
        before = ctx.metrics.snapshot()
        measured = run_measured(ctx, _workload, ctx)
        delta = ctx.metrics.snapshot() - before
    return measured, delta


def _speedup_expected() -> bool:
    return (os.cpu_count() or 1) >= 4


def test_threaded_shuffle_scaling(capsys=None):
    serial, serial_delta = _run_mode(False)
    threaded, threaded_delta = _run_mode(True)

    # determinism contract: identical values, identical logical metrics
    assert serial.value == threaded.value
    for field_name in ("stages_run", "tasks_launched", "shuffle_records",
                       "shuffle_bytes", "shuffles_performed"):
        assert getattr(serial_delta, field_name) \
            == getattr(threaded_delta, field_name), field_name

    speedup = serial.wall_s / max(threaded.wall_s, 1e-9)
    print_table(
        "Scheduler scaling (ufunc kernels under reduce_by_key)",
        ["mode", "wall", "utilization", "stages", "tasks"],
        [
            ["serial", f"{serial.wall_s:.3f}s",
             f"{serial.utilization * 100:.0f}%",
             serial_delta.stages_run, serial_delta.tasks_launched],
            ["threads x4", f"{threaded.wall_s:.3f}s",
             f"{threaded.utilization * 100:.0f}%",
             threaded_delta.stages_run, threaded_delta.tasks_launched],
            ["speedup", f"{speedup:.2f}x", "", "", ""],
        ],
    )
    print_stage_breakdown("serial", serial)
    print_stage_breakdown("threads x4", threaded)

    assert len(threaded.stage_timings) >= 2  # shuffle map + result
    if _speedup_expected():
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x on a multi-core host, "
            f"got {speedup:.2f}x")


def main(json_path: str = None) -> dict:
    """Run both modes and write the stage-breakdown JSON artifact."""
    serial, serial_delta = _run_mode(False)
    threaded, threaded_delta = _run_mode(True)
    artifact = {
        "cpu_count": os.cpu_count(),
        "speedup": serial.wall_s / max(threaded.wall_s, 1e-9),
        "modes": {
            "serial": {
                "wall_s": serial.wall_s,
                "utilization": serial.utilization,
                "stages_run": serial_delta.stages_run,
                "tasks_launched": serial_delta.tasks_launched,
                "shuffle_bytes": serial_delta.shuffle_bytes,
                "stage_timings": [
                    timing.as_dict() for timing in serial.stage_timings],
            },
            "threaded": {
                "wall_s": threaded.wall_s,
                "utilization": threaded.utilization,
                "stages_run": threaded_delta.stages_run,
                "tasks_launched": threaded_delta.tasks_launched,
                "shuffle_bytes": threaded_delta.shuffle_bytes,
                "stage_timings": [
                    timing.as_dict() for timing in threaded.stage_timings],
            },
        },
    }
    if json_path:
        with ClusterContext(num_executors=4,
                            default_parallelism=NUM_PARTITIONS,
                            use_threads=True, trace=True) as ctx:
            _workload(ctx)
            artifact["trace"] = write_trace_artifact(ctx, json_path)
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
    print(json.dumps(artifact, indent=2))
    return artifact


if __name__ == "__main__":
    import sys

    main(sys.argv[1] if len(sys.argv) > 1 else None)
