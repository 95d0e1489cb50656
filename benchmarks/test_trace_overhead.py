"""Tracing overhead — trace=False must be free, trace=True cheap.

The tracer's contract is that a context created with the default
``trace=False`` pays only one attribute check per would-be span: the
fused 4-operator chain from the fusion benchmark is run with tracing
off and with tracing on, and the disabled run must not be slower than
the traced run beyond timer noise (``wall_disabled <= wall_traced *
1.05``, min-over-repeats on both sides, the repeats of the two modes
interleaved). The traced run's absolute
overhead is recorded in the JSON artifact so regressions show up in CI
history.

Run as a script to emit the JSON artifact::

    PYTHONPATH=src python benchmarks/test_trace_overhead.py overhead.json
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

if __package__ in (None, ""):
    # allow `python benchmarks/test_trace_overhead.py` (the CI smoke
    # job) as well as `pytest benchmarks/`
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from benchmarks.harness import fresh_context, print_table
from repro.core import ArrayRDD

#: disabled tracing may not cost more than this fraction of a traced run
OVERHEAD_CEILING = 1.05
REPEATS = 5

SHAPE = (1024, 1024)
CHUNK = (128, 128)
DENSITY = 0.25


def _build_array(ctx) -> ArrayRDD:
    rng = np.random.default_rng(7)
    data = rng.random(SHAPE)
    valid = rng.random(SHAPE) < DENSITY
    return ArrayRDD.from_numpy(ctx, data, CHUNK, valid=valid).materialize()


def _chain(arr: ArrayRDD) -> ArrayRDD:
    """subarray → filter → map → scalar: 4 chunk-local operators."""
    return (arr.subarray((16, 16), (1000, 1000))
               .filter(lambda xs: xs > 0.05)
               .map_values(lambda xs: xs * xs)
            * 10.0)


def _mode(trace: bool, ctx, walls: list, count) -> dict:
    return {
        "trace": trace,
        "wall_s": min(walls),
        "walls_s": walls,
        "count": count,
        "num_spans": len(ctx.tracer.spans()),
    }


def run() -> dict:
    """Both contexts are built first, then the repeats interleave
    (untraced, traced, untraced, ...), so host drift during the run
    lands on both modes alike instead of on whichever ran second."""
    contexts = [fresh_context(8, trace=trace) for trace in (False, True)]
    arrays = [_build_array(ctx) for ctx in contexts]
    walls, counts = ([], []), [None, None]
    for _ in range(REPEATS):
        for mode, arr in enumerate(arrays):
            out = _chain(arr)
            start = time.perf_counter()
            counts[mode] = out.count_valid()
            walls[mode].append(time.perf_counter() - start)
    disabled, traced = (_mode(bool(mode), ctx, walls[mode], counts[mode])
                        for mode, ctx in enumerate(contexts))
    for ctx in contexts:
        ctx.shutdown()
    overhead = traced["wall_s"] / max(disabled["wall_s"], 1e-9)
    artifact = {
        "shape": list(SHAPE),
        "chunk_shape": list(CHUNK),
        "density": DENSITY,
        "chain_ops": 4,
        "repeats": REPEATS,
        "overhead_ceiling": OVERHEAD_CEILING,
        "traced_over_disabled": overhead,
        "disabled": disabled,
        "traced": traced,
    }
    print_table(
        "tracing overhead (fused 4-op chain)",
        ["mode", "wall (min)", "spans recorded"],
        [
            ["trace=False", f"{disabled['wall_s'] * 1e3:.2f}ms",
             disabled["num_spans"]],
            ["trace=True", f"{traced['wall_s'] * 1e3:.2f}ms",
             traced["num_spans"]],
            ["traced/disabled", f"{overhead:.3f}x", ""],
        ],
    )
    return artifact


def test_trace_overhead():
    artifact = run()
    disabled, traced = artifact["disabled"], artifact["traced"]
    assert disabled["count"] == traced["count"]
    assert disabled["num_spans"] == 0
    assert traced["num_spans"] > 0
    # the contract is on the *disabled* path: turning tracing off must
    # never cost wall time — disabled can't be slower than traced
    # beyond timer noise
    assert disabled["wall_s"] <= traced["wall_s"] * OVERHEAD_CEILING, (
        f"trace=False ran {disabled['wall_s']:.4f}s vs "
        f"{traced['wall_s']:.4f}s traced — the disabled path is "
        f"paying for tracing")


def main(json_path: str = None) -> dict:
    artifact = run()
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
    print(json.dumps(artifact, indent=2))
    return artifact


if __name__ == "__main__":
    import sys

    main(sys.argv[1] if len(sys.argv) > 1 else None)
