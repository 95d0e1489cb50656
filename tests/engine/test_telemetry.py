"""Gauges and health in the trace: samples, ``health_events``, ``repro top``.

Covers the contracts: a traced job closes with exactly one ``gauge``
event carrying the catalog's gauges and the counters at that job's
end; an untraced job never samples; tracing on or off leaves results
and counters byte-identical across all three backends; the health
conditions read from a trace fire on transitions (not continuously)
and give the same events live and replayed from the log; ``repro
top`` renders a recorded trace.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.engine import ClusterContext, HashPartitioner, StorageLevel
from repro.engine.metrics import COUNTER_FIELDS, METRICS
from repro.engine.telemetry import collect_sample
from repro.engine.top import (
    SPILLS_PER_SECOND,
    health_events,
    render_dashboard,
    run_top,
    sparkline,
)
from repro.engine.tracing import Span, Tracer, load_jsonl, logical_tree

from tests.engine.test_process_backend import _KillOnFirstAttempt


def _run_job(ctx):
    pairs = ctx.parallelize([(i % 7, float(i)) for i in range(500)], 4)
    return sorted(pairs.map(lambda kv: (kv[0], kv[1] * 2))
                  .reduce_by_key(lambda a, b: a + b).collect())


def _run_probe(ctx):
    """A driver-side probe job: ``lookup`` on a partitioned RDD."""
    pairs = ctx.parallelize([(k, k) for k in range(10)],
                            partitioner=HashPartitioner(2))
    return pairs.lookup(3)


def _recorded_trace(tmp_path, **kwargs):
    """Run a traced job and save its trace; returns the log path."""
    path = str(tmp_path / "run.trace.jsonl")
    with ClusterContext(num_executors=2, trace=True, **kwargs) as ctx:
        _run_job(ctx)
        ctx.tracer.export_jsonl(path)
    return path


def _synthetic_job(ids, t, gauges=None, counters=None, task_times=()):
    """The spans of one traced job: a stage of ``task_times`` tasks
    and the gauge sample closing the job, at wall-clock ``t``."""
    def span(parent, name, kind, start, end, **attrs):
        out = Span(next(ids), parent and parent.span_id, name, kind,
                   start, "main", attrs)
        out.end_s = end
        return out

    job = span(None, "job", "job", t, t + 1.0)
    stage = span(job, "map", "stage", t, t + 1.0, stage_kind="result")
    tasks = [span(stage, "task", "task", t, t + wall, partition=index)
             for index, wall in enumerate(task_times)]
    sample = {"t": t, "gauges": dict(gauges or {}),
              "counters": dict(dict.fromkeys(COUNTER_FIELDS, 0),
                               **(counters or {}))}
    return [job, stage, *tasks,
            span(job, "sample", "gauge", t + 1.0, t + 1.0, **sample)]


#: per condition, the job it sees while healthy or violated; ``bumps``
#: counts the violated jobs so far, so counters stay cumulative and
#: move only while the condition holds
_CONDITIONS = {
    "ledger_high_watermark": lambda hot, _bumps: {
        "gauges": {"cache.budget_bytes": 100,
                   "cache.resident_bytes": 95 if hot else 10}},
    "nnz_imbalance": lambda hot, _bumps: {
        "gauges": {"nnz.imbalance": 5.0 if hot else 1.1}},
    "spill_rate_spike": lambda _hot, bumps: {
        "counters": {"cache_spills": 100 * bumps}},
    "worker_respawn": lambda _hot, bumps: {
        "counters": {"worker_respawns": bumps}},
    "shuffle_skew": lambda hot, _bumps: {
        "task_times": [0.001] * 7 + [0.05] if hot else [0.01, 0.01]},
}


class TestSamplerCollection:
    def test_sampler_collects_every_subsystem(self):
        ctx = ClusterContext(num_executors=2, use_threads=True,
                             cache_budget_bytes=1 << 20)
        try:
            _run_job(ctx)
            sample = collect_sample(ctx)
            gauges = sample["gauges"]
            for name in ("cache.resident_bytes", "cache.spilled_bytes",
                         "cache.blocks", "cache.pressure",
                         "shm.segments", "shm.resident_bytes"):
                assert name in gauges, name
            # every engine counter rides along, by name
            assert set(sample["counters"]) == set(COUNTER_FIELDS)
            assert sample["counters"]["tasks_launched"] > 0
        finally:
            ctx.shutdown()

    def test_telemetry_off_means_no_sampler(self, monkeypatch):
        """An untraced job never samples: the job path adds nothing."""
        import repro.engine.telemetry as telemetry

        calls = []
        monkeypatch.setattr(telemetry, "collect_sample",
                            lambda ctx: calls.append(ctx))
        with ClusterContext(num_executors=2, use_threads=True) as ctx:
            _run_job(ctx)
            _run_probe(ctx)
        assert calls == []

    @pytest.mark.parametrize("kwargs", [
        {},                                        # serial
        {"use_threads": True},                     # thread
        {"backend": "process"},                    # process
    ], ids=["serial", "thread", "process"])
    def test_every_job_span_has_one_gauge_event(self, kwargs):
        gauge_rows = {metric.name for metric in METRICS
                      if metric.kind == "gauge"}
        with ClusterContext(num_executors=2, trace=True, **kwargs) as ctx:
            ctx.nnz_stats.record("graph-load", [5.0, 15.0])
            _run_job(ctx)
            job_end_counters = ctx.metrics.snapshot().as_dict()
            _run_probe(ctx)
            spans = ctx.tracer.spans()
        jobs = [span for span in spans if span.kind == "job"]
        gauges = [span for span in spans if span.kind == "gauge"]
        assert len(jobs) == 2
        assert sorted(span.parent_id for span in gauges) \
            == [job.span_id for job in jobs]
        for span in gauges:
            assert set(span.attrs["gauges"]) == gauge_rows
        # the counters are the registry's at that job's end
        assert gauges[0].attrs["counters"] == job_end_counters


def _threshold_run(ctx):
    """A small job, then a skewed-nnz job whose cached blocks overrun
    a 64 KiB budget: crosses the watermark, spill and nnz thresholds."""
    ctx.parallelize(range(4), 2).count()
    ctx.nnz_stats.record("skewed", [1.0, 1.0, 1.0, 1.0, 30.0])
    blocks = ctx.parallelize(range(16), 16) \
        .map(lambda i: np.full(2048, i, dtype=np.float64)) \
        .persist(StorageLevel.MEMORY_AND_DISK)
    for _ in range(2):
        blocks.map(lambda a: float(a.sum())).collect()


class TestHealth:
    @pytest.mark.parametrize("rule", sorted(_CONDITIONS), ids=[
        "watermark", "nnz", "skew", "spill", "respawn"])
    def test_events_fire_on_transition_not_continuously(self, rule):
        """One event when a condition starts, none while it holds, a
        new one after it clears and comes back."""
        ids = itertools.count(1)
        spans, bumps = [], 0
        for index, hot in enumerate([False, True, True, False, True]):
            bumps += hot
            spans += _synthetic_job(ids, float(index),
                                    **_CONDITIONS[rule](hot, bumps))
        events = health_events(spans)
        assert [event["rule"] for event in events] == [rule, rule]
        gauges = [span for span in spans if span.kind == "gauge"]
        assert [event["at"] for event in events] \
            == [gauges[1].start_s, gauges[4].start_s]

    def test_spill_rate_rule_reads_the_previous_sample(self):
        ids = itertools.count(1)
        spans = (_synthetic_job(ids, 0.0)
                 + _synthetic_job(ids, 2.0, counters={"cache_spills": 100})
                 + _synthetic_job(ids, 3.0, counters={"cache_spills": 100}))
        events = health_events(spans)
        assert [event["rule"] for event in events] == ["spill_rate_spike"]
        assert events[0]["value"] == pytest.approx(50.0)
        assert events[0]["value"] > SPILLS_PER_SECOND
        # the first sample has no previous one to rate against
        assert health_events(
            _synthetic_job(itertools.count(1), 5.0,
                           counters={"cache_spills": 100})) == []

    def test_rule_events_read_from_a_live_trace(self):
        with ClusterContext(num_executors=2, trace=True) as ctx:
            ctx.nnz_stats.record("skewed", [1.0, 1.0, 1.0, 1.0, 30.0])
            _run_job(ctx)
            events = health_events(ctx.tracer.spans())
        assert [event["rule"] for event in events] == ["nnz_imbalance"]
        assert events[0]["value"] == pytest.approx(30.0 / 6.8)

    def test_replay_gives_the_same_health(self, tmp_path):
        path = str(tmp_path / "thresholds.trace.jsonl")
        with ClusterContext(num_executors=2, trace=True,
                            cache_budget_bytes=64 << 10) as ctx:
            _threshold_run(ctx)
            live = health_events(ctx.tracer.spans())
            ctx.tracer.export_jsonl(path)
        assert {"ledger_high_watermark", "spill_rate_spike",
                "nnz_imbalance"} <= {event["rule"] for event in live}
        _meta, spans = load_jsonl(path)
        assert health_events(spans) == live

    def test_process_task_spans_name_their_worker(self):
        trees, spans = [], None
        for kwargs in ({}, {"backend": "process"}):
            with ClusterContext(num_executors=2, trace=True,
                                **kwargs) as ctx:
                _run_job(ctx)
                spans = ctx.tracer.spans()
            trees.append(logical_tree(spans))
        assert trees[0] == trees[1]
        tasks = [span for span in spans if span.kind == "task"
                 and span.name in ("task", "map_task")]
        assert tasks and all(isinstance(span.attrs.get("worker"), int)
                             for span in tasks)


class TestDeterminismContract:
    """Trace on vs off must be byte-identical for job results."""

    @pytest.mark.parametrize("kwargs", [
        {},                                        # serial
        {"use_threads": True},                     # thread
        {"backend": "process"},                    # process
    ], ids=["serial", "thread", "process"])
    def test_results_byte_identical_with_telemetry(self, kwargs):
        with ClusterContext(num_executors=2, **kwargs) as ctx:
            plain = _run_job(ctx)
            plain_counters = ctx.metrics.snapshot()
        with ClusterContext(num_executors=2, trace=True, **kwargs) as ctx:
            traced = _run_job(ctx)
            traced_counters = ctx.metrics.snapshot()
            assert any(span.kind == "gauge"
                       for span in ctx.tracer.spans())
        assert pickle.dumps(plain) == pickle.dumps(traced)
        # gauge samples are read-only: logical counters agree too
        assert plain_counters == traced_counters


class TestTopDashboard:
    def test_sparkline_scales_and_pads(self):
        line = sparkline([0, 1, 2, 3], width=8)
        assert len(line) == 8
        assert line.endswith("█")
        assert sparkline([], width=5) == "     "
        # constant non-zero series shows a flat low bar, not blanks
        assert set(sparkline([5, 5], width=2)) == {"▁"}

    def test_render_from_recorded_jsonl(self, tmp_path):
        meta, spans = load_jsonl(_recorded_trace(tmp_path))
        frame = render_dashboard(spans, meta)
        assert "repro top" in frame
        assert "executors=2" in frame
        assert "[memory]" in frame
        assert "[tasks]" in frame
        assert "[shuffle]" in frame
        assert "[health] OK" in frame
        assert "jobs=1" in frame

    def test_retired_pool_gauges_in_old_traces_change_nothing(self):
        """Traces recorded while the executor pool was a sample source
        carry six gauges the catalog no longer has; the dashboard and
        the health read both ignore them."""
        retired = {"pool.busy_threads": 3, "pool.queued_tasks": 7,
                   "pool.active_jobs": 1, "pool.num_workers": 4,
                   "scheduler.ready_stages": 2,
                   "scheduler.inflight_stages": 1}

        def trace(extra):
            ids = itertools.count(1)
            spans, bumps = [], 0
            for index, hot in enumerate([False, True, True, False, True]):
                bumps += hot
                job = {"gauges": {"cache.budget_bytes": 100,
                                  "cache.resident_bytes": 95 if hot else 10,
                                  **extra},
                       "counters": {"cache_spills": 100 * bumps}}
                spans += _synthetic_job(ids, float(index), **job)
            return spans

        old, new = trace(retired), trace({})
        assert "pool.busy_threads" in old[-1].attrs["gauges"]
        assert health_events(old) == health_events(new)
        assert health_events(new)
        meta = {"num_executors": 4}
        assert render_dashboard(old, meta) == render_dashboard(new, meta)

    def test_render_shows_workers_and_crash_events(self, tmp_path,
                                                   capsys):
        path = str(tmp_path / "crash.trace.jsonl")
        with ClusterContext(num_executors=2, backend="process",
                            trace=True, task_retries=3) as ctx:
            killer = _KillOnFirstAttempt(str(tmp_path / "crash-once"))
            got = sorted(ctx.parallelize(range(40), 4).map(killer)
                         .collect())
            assert got == list(range(40))
            _run_job(ctx)
            ctx.tracer.export_jsonl(path)
            pids = {span.attrs["worker"] for span in ctx.tracer.spans()
                    if "worker" in span.attrs}
        assert run_top(path) == 0
        frame = capsys.readouterr().out
        for row in ("[memory]", "resident", "[tasks]", "tasks/s",
                    "[shuffle]", "bytes/s"):
            assert row in frame
        # one row per pid that served a task, the replacement worker's too
        assert f"[workers]  {len(pids)} pids" in frame
        assert all(f"  {pid:<10} " in frame for pid in pids)
        assert "[health] WARN" in frame
        assert "worker_respawn" in frame

    def test_run_top_replay_exit_codes(self, tmp_path, capsys):
        path = _recorded_trace(tmp_path)
        assert run_top(path) == 0
        assert "repro top" in capsys.readouterr().out
        assert run_top(str(tmp_path / "missing.jsonl")) == 2
        # a trace recorded untraced-by-jobs holds no gauge sample
        empty = str(tmp_path / "empty.trace.jsonl")
        Tracer(enabled=True).export_jsonl(empty)
        assert run_top(empty) == 1

    def test_cli_wires_the_top_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = _recorded_trace(tmp_path)
        assert main(["top", path]) == 0
        assert "repro top" in capsys.readouterr().out


class TestReportDriftGuards:
    """The reports and the gauge samples read the one metric catalog,
    metrics.METRICS."""

    def test_sampled_counters_are_exactly_counter_fields(self):
        with ClusterContext(num_executors=2) as ctx:
            sample = collect_sample(ctx)
        assert set(sample["counters"]) == set(COUNTER_FIELDS)

    def test_memory_report_surfaces_optimizer_counters(self):
        with ClusterContext(num_executors=2) as ctx:
            from repro.engine.explain import memory_report

            report = memory_report(ctx)
        assert "optimizer_rules_fired" in report
        assert "optimizer_chunks_pruned" in report

    def test_stage_breakdown_appends_report_counters(self):
        from repro.engine.explain import stage_breakdown
        from repro.engine.metrics import MetricsSnapshot
        from repro.engine.tracing import StageProfile

        timings = [StageProfile("s", "result", 0.01, 2, [0.004, 0.005],
                                0, 0)]
        counters = MetricsSnapshot(optimizer_rules_fired=3,
                                   worker_respawns=1)
        text = stage_breakdown(timings, counters=counters)
        assert "optimizer_rules_fired: 3" in text
        assert "worker_respawns: 1" in text
        # counters that did not move stay out of the report
        assert "shm_bytes_mapped" not in text
        # and no counters line at all when nothing moved
        assert "counters:" not in stage_breakdown(
            timings, counters=MetricsSnapshot())


class TestNnzTelemetry:
    """The sparse execution tier's skew visibility."""

    def test_stats_gauges_shape(self):
        from repro.engine.telemetry import NnzBalanceStats

        stats = NnzBalanceStats()
        assert stats.gauges() == {}
        assert stats.last() == (None, None)
        stats.record("matmul-k", [10.0, 30.0, 20.0])
        assert stats.last() == ("matmul-k", [10.0, 30.0, 20.0])
        gauges = stats.gauges()
        assert gauges["partition_max"] == 30.0
        assert gauges["partition_mean"] == pytest.approx(20.0)
        assert gauges["imbalance"] == pytest.approx(1.5)
        assert gauges["partitions"] == 3
        stats.clear()
        assert stats.gauges() == {}

    def test_collect_sample_exposes_nnz_gauges(self):
        ctx = ClusterContext(num_executors=2)
        ctx.nnz_stats.record("graph-load", [5.0, 15.0])
        sample = collect_sample(ctx)
        assert sample["gauges"]["nnz.imbalance"] == pytest.approx(1.5)
        assert sample["gauges"]["nnz.partitions"] == 2

    def test_nnz_gauges_reach_top(self):
        with ClusterContext(num_executors=2, trace=True) as ctx:
            ctx.nnz_stats.record("partition_by_nnz", [2.0, 6.0])
            _run_job(ctx)
            frame = render_dashboard(ctx.tracer.spans())
        nnz_row = next(line for line in frame.splitlines()
                       if "nnz skew" in line)
        assert nnz_row.rstrip().endswith("2")

    def test_graph_nnz_balance_records_loads(self):
        import numpy as np

        from repro.ml import BitmaskGraph

        ctx = ClusterContext(num_executors=2, default_parallelism=2)
        rng = np.random.default_rng(11)
        edges = rng.integers(0, 64, size=(300, 2))
        graph = BitmaskGraph.from_edges(ctx, edges, 64,
                                        block_size=16,
                                        balance="nnz")
        stage, loads = ctx.nnz_stats.last()
        assert stage == "graph-load"
        assert sum(loads) == graph.num_edges()
