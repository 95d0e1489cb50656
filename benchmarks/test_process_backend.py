"""Process backend vs thread backend — where each one wins.

Two chains run under all three execution modes (serial, thread pool,
forked worker processes) on identical data:

- **Python-heavy**: a 4-op ``map_values`` chain of pure-Python
  per-record kernels. The GIL serializes the thread pool here, so the
  process backend — true multi-core, shuffle blocks exchanged through
  shared memory — should win big (>= 1.8x over threads on >= 4 cores).
- **numpy-dominated**: the same shape but GIL-releasing ufunc passes
  over dense blocks. Threads already scale on this one; the process
  backend must stay within 1.1x of it (its task round trips ride
  shared-memory segments, not the result pipe).

Shape claims (asserted on every host): all three modes return
byte-identical results and identical logical metrics on both chains.
Speedup/regression gates apply on hosts with >= 4 cores. ``main()``
writes the JSON + trace artifacts consumed by CI.
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np

if __package__ in (None, ""):
    # allow `python benchmarks/test_process_backend.py` (the CI smoke
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
NUM_EXECUTORS = 4
NUM_KEYS = 4

PY_RECORDS_PER_PARTITION = 120
PY_ROUNDS = 600
SPEEDUP_TARGET = 1.8

NP_RECORDS_PER_PARTITION = 3
NP_BLOCK_CELLS = 400_000
NP_KERNEL_PASSES = 4
REGRESSION_CEILING = 1.1

LOGICAL_FIELDS = ("stages_run", "tasks_launched", "shuffle_records",
                  "shuffle_bytes", "shuffles_performed")


# ----------------------------------------------------------------------
# the Python-heavy chain: four pure-Python per-record kernels
# ----------------------------------------------------------------------

def _py_gen(index):
    return [(j % NUM_KEYS, (index * PY_RECORDS_PER_PARTITION + j) or 1)
            for j in range(PY_RECORDS_PER_PARTITION)]


def _py_stir(value):
    acc = value
    for i in range(PY_ROUNDS):
        acc = (acc * 31 + i) % 1000003
    return acc


def _py_fold(value):
    acc = 0
    for i in range(PY_ROUNDS):
        acc = (acc + value * i) % 998244353
    return acc or 1


def _py_collatzish(value):
    acc = value
    for _ in range(PY_ROUNDS):
        acc = acc // 2 if acc % 2 == 0 else acc * 3 + 1
        acc = acc % 1000003 or 7
    return acc


def _py_digits(value):
    acc = value
    for _ in range(PY_ROUNDS // 10):
        acc = sum(int(d) * 7 for d in str(acc * acc + 11)) + acc % 97
    return acc


def _py_workload(ctx):
    chain = (
        ctx.generate(NUM_PARTITIONS, _py_gen)
        .map_values(_py_stir)
        .map_values(_py_fold)
        .map_values(_py_collatzish)
        .map_values(_py_digits)
        .reduce_by_key(lambda a, b: (a + b) % 1000000007)
    )
    return sorted(chain.collect())


# ----------------------------------------------------------------------
# the numpy-dominated chain: GIL-releasing ufunc passes
# ----------------------------------------------------------------------

def _np_gen(index):
    rng = np.random.default_rng(1000 + index)
    return [(index % NUM_KEYS, rng.random(NP_BLOCK_CELLS))
            for _ in range(NP_RECORDS_PER_PARTITION)]


def _np_kernel(block):
    acc = block
    for _ in range(NP_KERNEL_PASSES):
        acc = np.sqrt(acc * acc + 1.0)
    return float(acc.sum())


def _np_workload(ctx):
    chain = (
        ctx.generate(NUM_PARTITIONS, _np_gen)
        .map_values(_np_kernel)
        .reduce_by_key(lambda a, b: a + b)
    )
    return sorted(chain.collect())


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------

def _run_mode(mode, workload):
    # traced: measure() reads stage and task wall times off the spans
    kwargs = {"num_executors": NUM_EXECUTORS,
              "default_parallelism": NUM_PARTITIONS, "trace": True}
    if mode == "thread":
        kwargs["use_threads"] = True
    elif mode == "process":
        kwargs["backend"] = "process"
    with ClusterContext(**kwargs) as ctx:
        before = ctx.metrics.snapshot()
        measured = run_measured(ctx, workload, ctx)
        delta = ctx.metrics.snapshot() - before
    return measured, delta


def _speedup_expected() -> bool:
    return (os.cpu_count() or 1) >= 4


def _assert_identity(results, deltas):
    reference = pickle.dumps(results["serial"])
    for mode in ("thread", "process"):
        assert pickle.dumps(results[mode]) == reference, mode
    for field_name in LOGICAL_FIELDS:
        values = {mode: getattr(delta, field_name)
                  for mode, delta in deltas.items()}
        assert len(set(values.values())) == 1, (field_name, values)


def _run_chain(workload):
    results, measures, deltas = {}, {}, {}
    for mode in ("serial", "thread", "process"):
        measured, delta = _run_mode(mode, workload)
        results[mode] = measured.value
        measures[mode] = measured
        deltas[mode] = delta
    _assert_identity(results, deltas)
    return measures, deltas


def _print_chain(title, measures, deltas):
    rows = []
    for mode in ("serial", "thread", "process"):
        measured = measures[mode]
        rows.append([mode, f"{measured.wall_s:.3f}s",
                     f"{measured.utilization * 100:.0f}%",
                     deltas[mode].stages_run,
                     deltas[mode].tasks_launched])
    thread_vs_process = (measures["thread"].wall_s
                         / max(measures["process"].wall_s, 1e-9))
    rows.append(["process vs thread", f"{thread_vs_process:.2f}x",
                 "", "", ""])
    print_table(title, ["mode", "wall", "utilization", "stages", "tasks"],
                rows)
    print_stage_breakdown("process", measures["process"])
    return thread_vs_process


def test_python_heavy_chain_process_speedup(capsys=None):
    measures, deltas = _run_chain(_py_workload)
    speedup = _print_chain(
        "Python-heavy 4-op map_values chain (GIL-bound kernels)",
        measures, deltas)
    if _speedup_expected():
        assert speedup >= SPEEDUP_TARGET, (
            f"expected the process backend >= {SPEEDUP_TARGET}x over "
            f"threads on a multi-core host, got {speedup:.2f}x")


def test_numpy_chain_process_regression_bounded(capsys=None):
    measures, deltas = _run_chain(_np_workload)
    _print_chain("numpy-dominated chain (GIL-releasing kernels)",
                 measures, deltas)
    if _speedup_expected():
        ratio = (measures["process"].wall_s
                 / max(measures["thread"].wall_s, 1e-9))
        assert ratio <= REGRESSION_CEILING, (
            f"process backend must stay within {REGRESSION_CEILING}x of "
            f"threads on numpy chains, was {ratio:.2f}x slower")


def main(json_path: str = None) -> dict:
    """Run both chains under all modes; write the CI JSON artifact."""
    artifact = {"cpu_count": os.cpu_count(), "chains": {}}
    for chain_name, workload in (("python_heavy", _py_workload),
                                 ("numpy_dominated", _np_workload)):
        measures, deltas = _run_chain(workload)
        artifact["chains"][chain_name] = {
            "process_vs_thread_speedup": (
                measures["thread"].wall_s
                / max(measures["process"].wall_s, 1e-9)),
            "modes": {
                mode: {
                    "wall_s": measures[mode].wall_s,
                    "utilization": measures[mode].utilization,
                    "stages_run": deltas[mode].stages_run,
                    "tasks_launched": deltas[mode].tasks_launched,
                    "shuffle_bytes": deltas[mode].shuffle_bytes,
                    "shm_segments_created":
                        deltas[mode].shm_segments_created,
                    "shm_bytes_mapped": deltas[mode].shm_bytes_mapped,
                    "stage_timings": [
                        timing.as_dict()
                        for timing in measures[mode].stage_timings],
                }
                for mode in ("serial", "thread", "process")
            },
        }
    if json_path:
        with ClusterContext(num_executors=NUM_EXECUTORS,
                            default_parallelism=NUM_PARTITIONS,
                            backend="process", trace=True) as ctx:
            _py_workload(ctx)
            artifact["trace"] = write_trace_artifact(ctx, json_path)
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
    print(json.dumps(artifact, indent=2))
    return artifact


if __name__ == "__main__":
    import sys

    main(sys.argv[1] if len(sys.argv) > 1 else None)
