"""The measuring side of the benchmark: passes, clocks, spans, audits.

A *workload* (``bench/workloads``) turns a seed into inputs, starts a
``ClusterContext`` and exposes a fixed list of *ops*; one *pass* runs
every op once, in order, through public ``repro`` APIs. This module
runs passes and measures them from outside the program:

- wall time per pass and per op (``time.perf_counter``);
- CPU time of the driver plus its live worker children
  (``time.process_time`` + ``/proc/<pid>/stat``);
- peak resident memory of the driver plus its workers;
- a harness-side span tree (pass → op) under which the engine's own
  ``ClusterContext(trace=True)`` job → stage → task spans are attached
  by time containment, so a pass's wall time can be attributed to
  named layers (self time = span minus the interval its children
  cover);
- the oracle verdict of every op, a per-op watchdog, and a leak audit
  after ``shutdown()``.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.bitmask import rank_counts

#: an op that runs longer than this is a failed op and ends the run
OP_WATCHDOG_S = 60.0
#: how often a run sets the workload up (the median is ``setup_s``);
#: the measured time is split evenly over the sessions this starts
SETUP_REPEATS = 3
#: timed passes per session, whatever ``--seconds`` says; the memory
#: footprint is read after exactly this many (see ``run.py``)
MIN_PASSES = 2

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class OpTimeout(Exception):
    """Raised inside an op by the per-op watchdog."""


@contextmanager
def watchdog(seconds: float):
    """Interrupt the enclosed main-thread call after ``seconds``."""
    def on_alarm(_signum, _frame):
        raise OpTimeout(f"op exceeded {seconds:.0f}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class Reference:
    """A fixed piece of work, timed right before and after each pass.

    The host this benchmark runs on is shared: the same code runs up
    to 40 % slower for tens of seconds when a neighbour is busy, and
    no estimator over one run's passes removes a drift that outlasts
    the run. So the timing metrics are reported in *reference units*:
    pass time over the time this kernel took while the passes ran
    (:func:`relative_time`). The kernel is half interpreter work (a
    loop over ints and a dict) and half numpy memory work (gather,
    bincount, a streaming multiply), the same mix the workloads are
    made of, and imports nothing from the program. It is frozen:
    changing it rebases every ratio.
    """

    def __init__(self):
        rng = np.random.default_rng(20210419)
        self._index = rng.integers(0, 400_000, 300_000)
        self._bins = self._index % 50_000
        self._table = rng.random(400_000)
        self._stream = rng.random(500_000)

    def sample(self) -> float:
        """Seconds the kernel takes now (16 to 24 ms on this box)."""
        begin = time.perf_counter()
        total = 0
        seen = {}
        for i in range(100_000):
            total += i * i
            seen[i & 1023] = total
        for _ in range(3):
            np.bincount(self._bins, weights=self._table[self._index],
                        minlength=50_000).sum()
            (self._stream * 1.0001).sum()
        return time.perf_counter() - begin


# ----------------------------------------------------------------------
# workload protocol
# ----------------------------------------------------------------------

class Op:
    """One timed call into a layer's public function.

    ``layer`` names the module whose public API the op calls (its
    driver-side self time lands there); ``task_layer`` names the code
    that runs inside the op's tasks outside any ``plan`` span (the
    kernel). ``fn()`` returns the value the oracle checks.
    """

    def __init__(self, name: str, layer: str, fn, task_layer: str = None):
        self.name = name
        self.layer = layer
        self.task_layer = task_layer or layer
        self.fn = fn


class Session:
    """A started workload: one ``ClusterContext`` plus its ops.

    Workloads subclass this; ``close()`` is the only way a session
    ends, and it audits for leaks.
    """

    #: engine backend the context runs on: serial | thread | process
    backend = "serial"
    #: directory the context spills to, audited for leftovers on close
    spill_dir = None

    def __init__(self, context, ops):
        self.context = context
        self.ops = list(ops)

    def end_pass(self) -> None:
        """Release what one pass cached (so resident bytes stay flat)."""

    def probe_data(self) -> dict:
        """The workload's own chunks / records / closures for probes."""
        return {}

    def layer_metrics(self) -> dict:
        """Workload-specific per-layer values read off its results."""
        return {}

    def close(self) -> list:
        """Shut the context down; return a list of leak descriptions."""
        context = self.context
        prefix = context.shm_registry.prefix
        context.cache.clear()
        context.shutdown()
        leaks = []
        from repro.engine.shm import leaked_segments

        segments = leaked_segments(prefix)
        if segments:
            leaks.append(f"{len(segments)} shm segments under {prefix}")
        spill = self.spill_dir
        if spill and os.path.isdir(spill) and os.listdir(spill):
            leaks.append(f"{len(os.listdir(spill))} spill files in "
                         f"{spill}")
        return leaks


# ----------------------------------------------------------------------
# resources: CPU and memory of the driver and its children
# ----------------------------------------------------------------------

def child_pids() -> list:
    """Live child processes of this driver (its forked workers).

    The ``multiprocessing`` resource tracker is a helper of the
    interpreter, not a worker, and is left out.
    """
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if int(fields[1]) != me or fields[0] == "Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                if b"resource_tracker" in handle.read():
                    continue
        except (OSError, IndexError, ValueError):
            continue
        found.append(int(entry))
    return sorted(found)


def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_peak_rss_mb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1e3
    except OSError:
        pass
    return 0.0


class Resources:
    """CPU seconds and peak RSS of the driver and a set of workers."""

    def __init__(self, worker_pids=()):
        self.worker_pids = list(worker_pids)

    def cpu_s(self) -> float:
        """user+sys CPU so far: driver (all threads) plus workers."""
        return time.process_time() + sum(
            _proc_cpu_s(pid) for pid in self.worker_pids)

    def peak_rss_mb(self) -> float:
        """High-water resident set: driver plus each worker's own."""
        return _proc_peak_rss_mb("self") + sum(
            _proc_peak_rss_mb(pid) for pid in self.worker_pids)


# ----------------------------------------------------------------------
# harness-side spans
# ----------------------------------------------------------------------

class Recorder:
    """In-memory span list: (id, parent, name, kind, start, end, attrs).

    Spans nest by a stack — the harness is single-threaded — and use
    ``time.perf_counter``, the clock the engine's tracer uses, so the
    two span sets share a timeline.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, kind: str, **attrs):
        record = {"id": len(self.spans) + 1,
                  "parent": self._stack[-1]["id"] if self._stack
                  else None,
                  "name": name, "kind": kind, "attrs": attrs,
                  "start_s": time.perf_counter(), "end_s": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()
            self._stack.pop()


#: engine span kind -> layer its self time belongs to; ``task`` is
#: resolved per op (kernel code on serial/thread, the worker round trip
#: on the process backend)
ENGINE_KIND_LAYER = {
    "job": "engine.scheduler",
    "stage": "engine.scheduler",
    "broadcast": "engine.scheduler",
    "shuffle": "engine.shuffle",
    "plan": "core.plan",
    "cache": "engine.storage",
    "checkpoint": "engine.storage",
}

#: every layer a span's self time can land in (the share metrics)
SPAN_LAYERS = ("queries", "core.array_rdd", "core.chunk", "core.plan",
               "matrix", "ml", "io", "engine.scheduler",
               "engine.shuffle", "engine.worker", "engine.storage")


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def attribute_layers(harness_spans, engine_spans, backend: str) -> dict:
    """Self time per layer over the traced passes.

    Engine root spans (jobs) hang under the op whose interval contains
    their start. A span's self time is its duration minus the part its
    children cover; it lands in the layer of the span's kind, or of
    the enclosing op for op/task spans. Time inside a pass but outside
    every op is unattributed.
    """
    nodes = {}
    for span in harness_spans:
        nodes[("h", span["id"])] = {
            "parent": ("h", span["parent"]) if span["parent"] else None,
            "start": span["start_s"], "end": span["end_s"],
            "kind": span["kind"], "attrs": span["attrs"]}
    ops = sorted((s for s in harness_spans if s["kind"] == "op"),
                 key=lambda s: s["start_s"])
    op_starts = [s["start_s"] for s in ops]
    engine_ids = {s.span_id for s in engine_spans}
    for span in engine_spans:
        if span.kind == "health":
            continue
        parent = ("e", span.parent_id) \
            if span.parent_id in engine_ids else None
        if parent is None:
            slot = bisect.bisect_right(op_starts, span.start_s) - 1
            if slot < 0 or span.start_s > ops[slot]["end_s"]:
                continue   # ran outside every traced op (setup)
            parent = ("h", ops[slot]["id"])
        nodes[("e", span.span_id)] = {
            "parent": parent, "start": span.start_s, "end": span.end_s,
            "kind": span.kind, "attrs": {}}
    children = {}
    for key, node in nodes.items():
        children.setdefault(node["parent"], []).append(key)

    def enclosing_op(key):
        while key is not None and nodes[key]["kind"] != "op":
            key = nodes[key]["parent"]
        return nodes[key] if key is not None else None

    layers = dict.fromkeys(SPAN_LAYERS, 0.0)
    unattributed = 0.0
    pass_wall = 0.0
    for key, node in nodes.items():
        duration = node["end"] - node["start"]
        kids = [(nodes[k]["start"], nodes[k]["end"])
                for k in children.get(key, ())]
        self_s = duration - _covered(node["start"], node["end"], kids)
        kind = node["kind"]
        if kind == "pass":
            pass_wall += duration
            unattributed += self_s
            continue
        if kind == "op":
            layer = node["attrs"]["layer"]
        elif kind == "task":
            op = enclosing_op(key)
            if op is None:
                continue
            layer = "engine.worker" if backend == "process" \
                else op["attrs"]["task_layer"]
        else:
            layer = ENGINE_KIND_LAYER.get(kind)
            if layer is None:
                continue
        layers[layer] += self_s
    return {"layers": layers, "unattributed_s": unattributed,
            "pass_wall_s": pass_wall}


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

def quartiles(values) -> tuple:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class PassResult:
    """Timings and oracle verdicts of one pass."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.op_wall_s = {}
        self.attempted = 0
        self.failures = []     # "op: reason" strings
        self.aborted = False   # a watchdog fired: stop using the session
        self.measurement = None
        self.resident_bytes = 0
        self.reference_s = None
        self.rank_calls = 0    # Bitmask.rank calls on the driver thread


def run_pass(session: Session, expected: dict, recorder: Recorder,
             resources: Resources, matches, measure: bool = False,
             reference: Reference = None) -> PassResult:
    """Run every op once; check each result against its reference.

    Results are checked after the pass's clocks stop, then dropped.
    An exception or a watchdog timeout fails that op; a timeout also
    aborts the pass (the engine's state is no longer trustworthy).
    With a ``reference``, its kernel is timed right before and right
    after the pass and the mean lands in ``reference_s``.
    """
    out = PassResult()
    results = {}
    gc.collect()
    measuring = session.context.measure() if measure else nullcontext()
    before_s = reference.sample() if reference else None
    cpu_before = resources.cpu_s()
    ranks_before = rank_counts()["bitmask_rank"]
    with measuring as out.measurement, \
            recorder.span("pass", "pass") as pass_span:
        for op in session.ops:
            out.attempted += 1
            with recorder.span(op.name, "op", layer=op.layer,
                               task_layer=op.task_layer) as op_span:
                try:
                    with watchdog(OP_WATCHDOG_S):
                        results[op.name] = op.fn()
                except OpTimeout as exc:
                    out.failures.append(f"{op.name}: {exc}")
                    out.aborted = True
                except Exception as exc:   # an op that raises is a failed op
                    out.failures.append(
                        f"{op.name}: {type(exc).__name__}: {exc}")
            out.op_wall_s[op.name] = op_span["end_s"] - op_span["start_s"]
            if out.aborted:
                break
    out.wall_s = pass_span["end_s"] - pass_span["start_s"]
    out.cpu_s = resources.cpu_s() - cpu_before
    out.rank_calls = rank_counts()["bitmask_rank"] - ranks_before
    if reference:
        out.reference_s = (before_s + reference.sample()) / 2
    for name, value in results.items():
        try:
            agrees = matches(value, expected[name])
        except Exception as exc:   # a malformed result fails its check
            agrees = False
            out.failures.append(
                f"{name}: oracle check raised {type(exc).__name__}: {exc}")
        if not agrees:
            out.failures.append(f"{name}: result differs from oracle")
    results.clear()
    # the in-memory footprint while the pass's data is still live:
    # cache ledger plus shared-memory segments (Fig. 9a's "in-memory")
    context = session.context
    out.resident_bytes = (context.cache.used_bytes()
                          + context.shm_registry.resident_bytes())
    session.end_pass()
    return out


def relative_time(passes, field: str) -> float:
    """Pass time in reference units: total over total.

    The sum of the passes' ``field`` (``wall_s`` or ``cpu_s``) over the
    sum of the reference samples taken between them.

    The host flips between a fast and a slow state (the kernel reads
    16 ms or 24 ms) more often than once per pass, so a pass sees a mix
    of both while a 20 ms sample sees one: dividing each pass by its
    own two samples adds their coin-flip to every ratio. Total over
    total weighs every sample alike and so estimates the mix the passes
    ran under. Over the ten-seed sets this benchmark was tuned on it
    had the narrowest worst-case run-to-run spread of the estimators
    tried (median of per-pass ratios, per-session medians, lower
    quartiles).
    """
    return (sum(getattr(one, field) for one in passes)
            / sum(one.reference_s for one in passes))


def timed_passes(session, expected, resources, matches, seconds: float,
                 reference: Reference) -> list:
    """Passes back to back until ``seconds`` elapsed (and enough ran)."""
    passes = []
    recorder = Recorder()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < MIN_PASSES:
        passes.append(run_pass(session, expected, recorder, resources,
                               matches, reference=reference))
        if passes[-1].aborted:
            break
    return passes
