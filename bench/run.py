"""One seeded runner for the five benchmark workloads.

    python3 bench/run.py --workload <w> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --seed <n> [--quick] [--trace 1] --out <file> [--append]

With ``--trace 0`` (the default) a run reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer
metrics (harness-side spans, engine spans, counters and layer probes).
Every metric is printed by name with its unit; the last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``. The exit code is non-zero when any op failed
its oracle check, raised, timed out or leaked.

Without ``--workload`` all five workloads run one after the other in
this one driver process. ``--out`` receives the full document (machine
block, one entry per run with per-workload statistics and every
sample); ``--append`` adds this invocation's run to an existing
document, so a multi-seed baseline is built from one fresh process per
run, the way the driver measures.
"""

from __future__ import annotations

import os
import sys

# Noise control, before numpy is imported anywhere: BLAS/OpenMP pools
# pinned to one thread (executors are the benchmark's parallelism) and
# a fixed hash seed for any forked worker.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ["PYTHONHASHSEED"] = "0"

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402

# importing the program is the first thing that can fail: in a directory
# without src/ this raises and the run exits non-zero, printing no result
from bench import harness, oracle, probes, schema  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: a single run must end well inside the contract's 180 s; past this the
#: interpreter dumps every thread's stack and exits non-zero
RUN_DEADLINE_S = 170


def _machine_block() -> dict:
    block = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "platform": platform.platform(),
             "git_sha": "unknown"}
    head = os.path.join(_ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(_ROOT, ".git", ref[5:])) as handle:
                ref = handle.read().strip()
        block["git_sha"] = ref
    except OSError:
        pass   # the driver's checkout is not a git repository
    return block


def _summary(values) -> dict:
    q1, median, q3 = harness.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values), "samples": list(values)}


def _close(session, failures: list) -> None:
    for leak in session.close():
        failures.append(f"leak: {leak}")


def _inputs(module, params, seed):
    """The run's inputs and the oracle's answers to every op.

    Made once, outside every clock: generating inputs is the harness's
    work, not the program's (and its large allocations are the
    noisiest thing a run does), so set-up time starts at the context.
    """
    inputs = module.generate(seed, params)
    return inputs, module.expected(inputs, params)


def _setup(module, params, inputs, expected, workdir, trace=False,
           backend=None):
    """Start a session on the inputs and run the warm-up pass.

    Returns ``(session, warm_pass, seconds)`` — context start (worker
    fork included), ingest, cache warm-up and the warm-up pass:
    everything the program does before the first timed pass. The
    warm-up pass fills caches and lazy structures; it is checked like
    any other but never timed.
    """
    os.makedirs(workdir, exist_ok=True)
    begin = time.perf_counter()
    session = module.start(inputs, params, workdir, trace=trace,
                           backend=backend)
    warm = harness.run_pass(session, expected, harness.Recorder(),
                            harness.Resources(), oracle.matches)
    return session, warm, time.perf_counter() - begin


def run_end_to_end(module, seed: int, seconds: float, quick: bool,
                   workdir: str) -> dict:
    """The untraced run: several sessions, each set up (timed), given an
    equal share of the measured time, shut down and leak-audited."""
    params = module.params(quick)
    inputs, expected = _inputs(module, params, seed)
    reference = harness.Reference()
    failures = []
    attempted = 0
    setup_times, passes, passes_per_session = [], [], []
    for attempt in range(harness.SETUP_REPEATS):
        session, warm, setup_s = _setup(
            module, params, inputs, expected,
            os.path.join(workdir, f"s{attempt}"))
        setup_times.append(setup_s)
        attempted += warm.attempted
        failures.extend(warm.failures)
        resources = harness.Resources(harness.child_pids())
        timed = harness.timed_passes(
            session, expected, resources, oracle.matches,
            seconds / harness.SETUP_REPEATS, reference)
        passes += timed
        passes_per_session.append(len(timed))
        peak_rss_mb = resources.peak_rss_mb()
        _close(session, failures)
        stragglers = harness.child_pids()
        if stragglers:
            failures.append(f"leak: live workers after shutdown "
                            f"{stragglers}")
        if passes[-1].aborted:
            break
    for one in passes:
        attempted += one.attempted
        failures.extend(one.failures)
    values = {"setup_s": statistics.median(setup_times),
              "wall_rel": harness.relative_time(passes, "wall_s"),
              "cpu_rel": harness.relative_time(passes, "cpu_s"),
              # read after the same number of passes on every run: the
              # process backend keeps each pass's shuffle segments until
              # shutdown, so the footprint grows with the pass count
              "resident_mb": timed[min(len(timed), harness.MIN_PASSES)
                                   - 1].resident_bytes / 1e6,
              "peak_rss_mb": peak_rss_mb}
    detail = {name: _summary(series) for name, series in (
        ("setup_s", setup_times),
        ("wall_s", [one.wall_s for one in passes]),
        ("cpu_s", [one.cpu_s for one in passes]),
        ("reference_s", [one.reference_s for one in passes]))}
    detail["passes_per_session"] = passes_per_session
    detail["params"] = params
    detail["op_median_s"] = {
        op.name: statistics.median(one.op_wall_s[op.name]
                                   for one in passes
                                   if op.name in one.op_wall_s)
        for op in session.ops}
    return {"attempted": attempted, "failures": failures,
            "metrics": {name: (values[name], spec["unit"])
                        for name, spec in schema.END_TO_END.items()},
            "detail": detail}


def run_traced(module, seed: int, seconds: float, quick: bool,
               workdir: str) -> dict:
    """The traced run: one session whose passes alternate between the
    engine's tracer switched off and on. The traced passes yield spans
    and counters; the ratio of the two kinds is the tracing overhead.
    """
    params = module.params(quick)
    inputs, expected = _inputs(module, params, seed)
    failures = []
    session, warm, _ = _setup(module, params, inputs, expected,
                              os.path.join(workdir, "traced"),
                              trace=True)
    tracer = session.context.tracer
    attempted = warm.attempted
    failures.extend(warm.failures)
    resources = harness.Resources(harness.child_pids())
    reference = harness.Reference()
    plain_passes, traced_passes, attributions = [], [], []
    engine_spans = []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or len(traced_passes) < harness.MIN_PASSES):
        tracer.enabled = False
        plain_passes.append(harness.run_pass(
            session, expected, harness.Recorder(), resources,
            oracle.matches, reference=reference))
        # one pass's spans at a time: what a pass recorded is read and
        # dropped, so the tracer's memory does not grow over the run
        tracer.clear()
        tracer.enabled = True
        recorder = harness.Recorder()
        traced_passes.append(harness.run_pass(
            session, expected, recorder, resources, oracle.matches,
            measure=True, reference=reference))
        engine_spans = tracer.spans()
        attributions.append(harness.attribute_layers(
            recorder.spans, engine_spans, session.backend))
        if plain_passes[-1].aborted or traced_passes[-1].aborted:
            break
    tracer.enabled = False
    for one in plain_passes + traced_passes:
        attempted += one.attempted
        failures.extend(one.failures)

    metrics = dict.fromkeys(schema.PER_LAYER_NAMES, 0.0)
    metrics.update(probes.trace_metrics(session, traced_passes,
                                        plain_passes, attributions,
                                        engine_spans))
    metrics.update(session.layer_metrics())
    if session.backend == "process":
        # scaling efficiency: the same pass, once, on the serial backend
        serial, warm_s, _ = _setup(
            module, params, inputs, expected,
            os.path.join(workdir, "serial"), backend="serial")
        serial_pass = harness.run_pass(
            serial, expected, harness.Recorder(), resources,
            oracle.matches, reference=reference)
        attempted += warm_s.attempted + serial_pass.attempted
        failures.extend(warm_s.failures + serial_pass.failures)
        _close(serial, failures)
        metrics["scale.process_over_serial"] = (
            serial_pass.wall_s / serial_pass.reference_s
            / harness.relative_time(plain_passes, "wall_s"))
    metrics.update(probes.layer_probes(session, seed, workdir))
    _close(session, failures)
    unknown = set(metrics) - set(schema.PER_LAYER_NAMES)
    if unknown:
        raise KeyError(f"metrics not in the schema: {sorted(unknown)}")
    return {
        "attempted": attempted, "failures": failures,
        "metrics": {name: (metrics[name], schema.PER_LAYER_UNITS[name])
                    for name in schema.PER_LAYER_NAMES},
        "detail": {"params": params,
                   "traced_wall_s": _summary(
                       [one.wall_s for one in traced_passes]),
                   "plain_wall_s": _summary(
                       [one.wall_s for one in plain_passes])},
    }


def _print_metrics(name: str, result: dict) -> None:
    print(f"--- {name}: attempted {result['attempted']} ops, "
          f"failed {len(result['failures'])}")
    for failure in result["failures"]:
        print(f"    FAILED {failure}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"    {metric:<44} {value:>16.6g} {unit}")


def _result_line(result: dict) -> dict:
    return {"correct": not result["failures"],
            "attempted": result["attempted"],
            "failed": len(result["failures"]),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit)
                        in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one of the five workloads; "
                        "all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1/8 scale, 1 s per run: schema + oracle "
                        "smoke check, not a measurement")
    parser.add_argument("--out", help="write the full result document")
    parser.add_argument("--append", action="store_true",
                        help="add this invocation's runs to an existing "
                        "--out document (one fresh process per run is "
                        "how the driver measures; see README)")
    args = parser.parse_args(argv)

    faulthandler.enable()
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else schema.RUN_SECONDS
    runner = run_traced if args.trace else run_end_to_end

    scratch = os.path.join(_HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    run = {}
    try:
        for name in names:
            faulthandler.dump_traceback_later(RUN_DEADLINE_S, exit=True)
            result = runner(WORKLOADS[name], args.seed, seconds,
                            args.quick, os.path.join(workdir, name))
            faulthandler.cancel_dump_traceback_later()
            _print_metrics(f"{name} (seed {args.seed})", result)
            run[name] = {**_result_line(result), "seed": args.seed,
                         "failures": result["failures"],
                         "detail": result["detail"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        document = {"schema": 1, "benchmark": "BENCH_11", "claim": None,
                    "seconds": seconds, "trace": args.trace,
                    "quick": args.quick, "machine": _machine_block(),
                    "runs": [run]}
        if args.append and os.path.exists(args.out):
            with open(args.out) as handle:
                previous = json.load(handle)
            same = ("trace", "quick", "seconds")
            if any(previous[key] != document[key] for key in same):
                parser.error(f"{args.out} was measured with other "
                             f"settings")
            document["runs"] = previous["runs"] + document["runs"]
        with open(args.out, "w") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
    # the last line: one workload's result as the contract words it, or
    # (all workloads) the same keys with workload-qualified metric names
    if len(names) == 1:
        body = run[names[0]]
        line = {key: body[key]
                for key in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {"correct": all(body["correct"] for body in run.values()),
                "attempted": sum(b["attempted"] for b in run.values()),
                "failed": sum(b["failed"] for b in run.values()),
                "metrics": {f"{name}/{metric}": value
                            for name, body in run.items()
                            for metric, value
                            in body["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
