"""Command-line entry point: ``python -m repro <command>``.

Commands:

- ``info``      — version, package map, and environment report.
- ``demo``      — a one-minute tour: build a sparse array, run the core
  operators, train a model, print engine metrics.
- ``selftest``  — run the unit test suite (requires pytest).
- ``bench``     — run the figure/table reproduction benchmarks
  (requires pytest-benchmark); ``--figure fig9`` narrows to one file.
- ``trace``     — replay a saved ``*.trace.jsonl`` event log into a
  stage-breakdown report; ``--chrome OUT``
  additionally re-exports the log in Chrome ``trace_event`` format.
- ``top``       — one dashboard frame from a saved ``*.trace.jsonl``:
  sparkline series for memory/tasks/shuffle from its gauge events,
  per-worker rows from its task spans, and the health events derived
  from both.

Both exit 2 on a file that is not a ``repro-trace`` v1 log.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_info(_args) -> int:
    import numpy

    import repro

    print(f"repro {repro.__version__} — Spangle reproduction "
          f"(Kim, Kim, Moon — ICDE 2021)")
    print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}")
    print()
    packages = [
        ("repro.engine", "mini-Spark substrate (RDDs, shuffles, "
                         "cache, lineage, cost model)"),
        ("repro.bitmask", "bitmask machinery (rank/select, popcounts, "
                          "hierarchical form)"),
        ("repro.core", "ArrayRDD, MaskRDD, chunks, operators, "
                       "stats, updates"),
        ("repro.matrix", "distributed linear algebra"),
        ("repro.ml", "PageRank and Eq.-2 SGD logistic regression"),
        ("repro.baselines", "SciSpark / RasterFrames / SciDB / COO / "
                            "MLlib / GraphX comparison systems"),
        ("repro.data", "synthetic datasets with the paper's "
                       "signatures"),
        ("repro.queries", "the Table-I raster benchmark queries"),
        ("repro.io", "CSV and SNF ingestion/export, ChunkStore "
                     "save/load"),
    ]
    for name, blurb in packages:
        print(f"  {name:<18} {blurb}")
    return 0


def _cmd_demo(_args) -> int:
    import numpy as np

    from repro import ArrayRDD, ClusterContext

    ctx = ClusterContext(num_executors=4)
    rng = np.random.default_rng(0)
    values = rng.random((512, 512))
    valid = rng.random((512, 512)) < 0.2
    print("building a 512x512 array, 20% of cells valid ...")
    array = ArrayRDD.from_numpy(ctx, values, (128, 128), valid=valid)
    print(f"  chunks: {array.num_chunks_materialized()}  "
          f"valid cells: {array.count_valid():,}  "
          f"footprint: {array.memory_bytes() // 1024} KiB "
          f"(dense: {values.nbytes // 1024} KiB)")
    print(f"  mean of [100:300, 100:300]: "
          f"{array.subarray((100, 100), (299, 299)).aggregate('avg'):.4f}")
    print(f"  cells > 0.9: "
          f"{array.filter(lambda xs: xs > 0.9).count_valid():,}")

    from repro.ml import DistributedSamples, LogisticRegression

    print("\ntraining logistic regression on 2000x16 synthetic rows ...")
    X = rng.normal(size=(2000, 16))
    y = (X @ rng.normal(size=16) > 0).astype(float)
    rows, cols = np.nonzero(X)
    samples = DistributedSamples.from_coo(
        ctx, rows, cols, X[rows, cols], y, 16, chunk_rows=128)
    model = LogisticRegression(max_iterations=120, chunks_per_step=2)
    model.fit(samples)
    print(f"  accuracy: {model.accuracy(samples):.2%} in "
          f"{model.history.iterations} iterations")

    snapshot = ctx.metrics.snapshot()
    print(f"\nengine: {snapshot.jobs_run} jobs, "
          f"{snapshot.tasks_launched} tasks, "
          f"{snapshot.shuffle_bytes:,} shuffle bytes")
    return 0


def _pytest(extra) -> int:
    try:
        import pytest
    except ImportError:
        print("pytest is not installed", file=sys.stderr)
        return 2
    return pytest.main(extra)


def _cmd_selftest(args) -> int:
    return _pytest(["tests/", "-q"] + (["-x"] if args.fail_fast else []))


def _cmd_bench(args) -> int:
    target = "benchmarks/"
    if args.figure:
        mapping = {
            "fig7": "benchmarks/test_fig7_raster_queries.py",
            "fig8": "benchmarks/test_fig8_chunk_size.py",
            "fig9": "benchmarks/test_fig9_maskrdd.py",
            "fig10": "benchmarks/test_fig10_ml_core_ops.py",
            "fig11": "benchmarks/test_fig11_pagerank.py",
            "fig12": "benchmarks/test_fig12_sgd.py",
            "table3": "benchmarks/test_table3_logistic.py",
            "ablations": "benchmarks/test_ablations.py",
        }
        key = args.figure.lower().rstrip("ab")
        if key not in mapping:
            print(f"unknown figure {args.figure!r}; have "
                  f"{sorted(mapping)}", file=sys.stderr)
            return 2
        target = mapping[key]
    return _pytest([target, "--benchmark-only", "-q", "-s"])


def _cmd_trace(args) -> int:
    from repro.engine.tracing import (
        export_chrome_trace,
        load_jsonl,
        profiles_from_spans,
    )

    try:
        meta, spans = load_jsonl(args.log)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace log {args.log!r}: {exc}",
              file=sys.stderr)
        return 2
    if not spans:
        print(f"{args.log}: no spans recorded", file=sys.stderr)
        return 1
    num_executors = args.executors or meta.get("num_executors")
    profiles = profiles_from_spans(spans, num_executors=num_executors)
    print(f"{args.log}: {len(spans)} spans, {len(profiles)} jobs"
          + (f", {num_executors} executors" if num_executors else ""))
    for index, profile in enumerate(profiles):
        print()
        print(f"[job {index}] {profile.render()}")
    orphans = [s for s in spans
               if s.parent_id is None and s.kind != "job"]
    if orphans:
        print(f"\n{len(orphans)} top-level non-job spans "
              f"(broadcasts outside jobs):")
        for span in orphans:
            print(f"  {span.kind:<11} {span.name:<28} "
                  f"{span.wall_s * 1e3:8.2f} ms")
    if args.chrome:
        export_chrome_trace(spans, args.chrome)
        print(f"\nwrote Chrome trace: {args.chrome} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_top(args) -> int:
    from repro.engine.top import run_top

    return run_top(args.log)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spangle reproduction — distributed in-memory "
                    "array processing",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("info", help="version and package map")
    subparsers.add_parser("demo", help="one-minute guided tour")
    selftest = subparsers.add_parser("selftest",
                                     help="run the unit tests")
    selftest.add_argument("-x", "--fail-fast", action="store_true")
    bench = subparsers.add_parser(
        "bench", help="run the paper-figure benchmarks")
    bench.add_argument("--figure",
                       help="one of fig7..fig12, table3, ablations")
    trace = subparsers.add_parser(
        "trace", help="replay a saved trace event log into a report")
    trace.add_argument("log", help="path to a *.trace.jsonl file")
    trace.add_argument("--chrome", metavar="OUT",
                       help="also write a Chrome trace_event file")
    trace.add_argument("--executors", type=int, default=None,
                       help="override executor count for the "
                            "utilization report")
    top = subparsers.add_parser(
        "top", help="render a saved trace's gauges, workers and the "
                    "health read from it as one dashboard frame")
    top.add_argument("log", help="path to a *.trace.jsonl file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "selftest": _cmd_selftest,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "top": _cmd_top,
    }
    if args.command is None:
        parser.print_help()
        return 0
    return commands[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
