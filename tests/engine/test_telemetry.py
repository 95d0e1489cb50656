"""Health and gauges in the trace: samples, rules, exporters, ``repro top``.

Covers the contracts: a traced job closes with exactly one ``gauge``
event carrying the catalog's gauges and the counters at that job's
end; an untraced job never samples; tracing on or off leaves results
and counters byte-identical across all three backends; health rules
fire on transitions (not continuously) and land in the trace as
``health`` spans; ``repro top`` renders a recorded trace.
"""

import os
import pickle

import pytest

from repro.engine import ClusterContext, HashPartitioner
from repro.engine.metrics import COUNTER_FIELDS, METRICS
from repro.engine.telemetry import (
    HealthMonitor,
    LedgerHighWatermark,
    NnzImbalance,
    SpillRateSpike,
    WorkerHeartbeats,
    collect_sample,
    pid_alive,
    prometheus_text,
)
from repro.engine.top import render_dashboard, run_top, sparkline
from repro.engine.tracing import Tracer, load_jsonl

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


def _hot_sample(t=1.0):
    return {"t": t, "gauges": {"cache.budget_bytes": 100,
                               "cache.resident_bytes": 95}}


class TestWorkerHeartbeats:
    def test_register_beat_and_rows(self):
        beats = WorkerHeartbeats()
        beats.register([111, 222])
        beats.beat(111, task_wall_s=0.25)
        rows = beats.rows()
        assert rows[111]["tasks"] == 1
        assert rows[111]["last_task_s"] == 0.25
        assert rows[222]["tasks"] == 0
        assert len(rows) == 2
        assert all(row["alive"] for row in rows.values())

    def test_reap_dead_marks_gone_processes(self):
        import multiprocessing as mp

        proc = mp.Process(target=lambda: None)
        proc.start()
        proc.join()  # reaped -> pid is fully gone
        beats = WorkerHeartbeats()
        beats.register([proc.pid])
        assert beats.reap_dead() == [proc.pid]
        assert not beats.rows()[proc.pid]["alive"]
        # idempotent: already-marked corpses are not re-reported
        assert beats.reap_dead() == []

    def test_pid_alive_on_self(self):
        assert pid_alive(os.getpid())


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
                         "shm.segments", "shm.resident_bytes",
                         "pool.busy_threads", "pool.queued_tasks",
                         "scheduler.ready_stages",
                         "scheduler.inflight_stages"):
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


class TestPrometheusText:
    def test_format_shape(self):
        sample = {
            "counters": {"tasks_launched": 12, "jobs_run": 3},
            "gauges": {"cache.resident_bytes": 4096,
                       "pool.busy_threads": 2},
            "workers": {"42": {"alive": True, "tasks": 7,
                               "last_task_s": 0.125},
                        "43": {"alive": False, "tasks": 1}},
        }
        text = prometheus_text(sample)
        lines = text.splitlines()
        assert "spangle_tasks_launched_total 12" in lines
        assert "# TYPE spangle_tasks_launched_total counter" in lines
        assert "spangle_cache_resident_bytes 4096" in lines
        assert "# TYPE spangle_cache_resident_bytes gauge" in lines
        assert 'spangle_worker_alive{pid="42"} 1' in lines
        assert 'spangle_worker_alive{pid="43"} 0' in lines
        assert 'spangle_worker_tasks_total{pid="42"} 7' in lines
        assert 'spangle_worker_last_task_seconds{pid="42"} 0.125' \
            in lines
        assert text.endswith("\n")

    def test_counters_follow_counter_fields_order(self):
        sample = {"counters": {name: 1 for name in COUNTER_FIELDS},
                  "gauges": {}, "workers": {}}
        text = prometheus_text(sample)
        for name in COUNTER_FIELDS:
            assert f"spangle_{name}_total 1" in text

    def test_scheduler_gauges_render(self):
        """The scheduler's readiness gauges render under their own
        catalog names."""
        sample = {
            "counters": {},
            "gauges": {"scheduler.ready_stages": 3,
                       "scheduler.inflight_stages": 2},
            "workers": {},
        }
        text = prometheus_text(sample)
        lines = text.splitlines()
        assert "spangle_scheduler_ready_stages 3" in lines
        assert "# TYPE spangle_scheduler_ready_stages gauge" in lines
        assert "spangle_scheduler_inflight_stages 2" in lines


class TestHealthMonitor:
    def test_events_fire_on_transition_not_continuously(self):
        monitor = HealthMonitor()
        cool = {"t": 2.0, "gauges": {"cache.budget_bytes": 100,
                                     "cache.resident_bytes": 10}}
        assert len(monitor.evaluate(_hot_sample(), None)) == 1
        # still hot: no re-emission while the condition holds
        assert monitor.evaluate(_hot_sample(), None) == []
        assert monitor.status() == "warn"
        # recovery clears the condition; the next violation re-fires
        monitor.evaluate(cool, None)
        assert monitor.status() == "ok"
        assert len(monitor.evaluate(_hot_sample(), None)) == 1
        assert len(monitor.events()) == 2
        assert monitor.events()[0].attrs["watermark"] \
            == LedgerHighWatermark.WATERMARK

    def test_spill_rate_rule_reads_the_previous_sample(self):
        monitor = HealthMonitor()
        calm = {"t": 0.0, "counters": {"cache_spills": 0}}
        spiking = {"t": 2.0, "counters": {"cache_spills": 100}}
        assert monitor.evaluate(calm, None) == []
        events = monitor.evaluate(spiking, None)
        assert [event.rule for event in events] == ["spill_rate_spike"]
        assert events[0].attrs["spills_per_s"] == pytest.approx(50.0)
        assert events[0].attrs["threshold"] == SpillRateSpike.PER_SECOND
        # no new spills since the previous sample: the condition clears
        monitor.evaluate({"t": 3.0, "counters": {"cache_spills": 100}},
                         None)
        assert monitor.status() == "ok"

    def test_events_bridge_into_the_trace_stream(self):
        from repro.engine.tracing import SPAN_KINDS

        assert "health" in SPAN_KINDS
        assert "gauge" in SPAN_KINDS
        tracer = Tracer(enabled=True)
        monitor = HealthMonitor(tracer=tracer)
        monitor.emit("worker_heartbeat_missed", "warning",
                     "worker 99 gone", pid=99)
        spans = tracer.spans()
        assert len(spans) == 1
        assert spans[0].kind == "health"
        assert spans[0].name == "worker_heartbeat_missed"
        assert spans[0].attrs["pid"] == 99

    def test_rule_events_land_under_the_job_span(self):
        with ClusterContext(num_executors=2, trace=True) as ctx:
            ctx.nnz_stats.record("skewed", [1.0, 1.0, 1.0, 1.0, 30.0])
            _run_job(ctx)
            spans = ctx.tracer.spans()
            assert ctx.health().status == "warn"
        job = next(span for span in spans if span.kind == "job")
        health = [span for span in spans if span.kind == "health"]
        assert [span.name for span in health] == ["nnz_imbalance"]
        assert health[0].parent_id == job.span_id
        assert health[0].attrs["stage"] == "skewed"

    def test_health_report_renders(self):
        with ClusterContext(num_executors=2) as ctx:
            _run_job(ctx)
            report = ctx.health()
            assert report.status == "ok"
            assert "Health: OK" in str(report)
            assert report.as_dict() == {"status": "ok", "events": []}

    def test_health_works_with_telemetry_off(self):
        with ClusterContext(num_executors=2) as ctx:
            # a genuinely dead ledger row, the way fault paths leave
            # one: a child process that has already exited
            import multiprocessing as mp

            child = mp.Process(target=lambda: None)
            child.start()
            child.join()
            ctx.worker_heartbeats.register([child.pid])
            ctx.health_monitor.emit(
                "worker_heartbeat_missed", "warning",
                f"worker {child.pid} stopped responding",
                dedup_key=f"worker_heartbeat_missed:{child.pid}",
                pid=child.pid)
            # health() evaluates the rules on demand: the dead row is
            # still there, so the condition holds
            report = ctx.health()
            assert report.status == "warn"
            assert "stopped responding" in str(report)
            # once the row is retired (what the respawn path does),
            # the next report clears to ok — no stuck warning
            ctx.worker_heartbeats.forget([child.pid])
            assert ctx.health().status == "ok"

    def test_rules_read_only_the_spans_since_the_last_job(self,
                                                          monkeypatch):
        """Per-job evaluation never rescans the whole trace."""
        def full_scan(self):
            raise AssertionError("the job path scanned the whole trace")

        with ClusterContext(num_executors=2, use_threads=True,
                            trace=True) as ctx:
            _run_job(ctx)
            monkeypatch.setattr(Tracer, "spans", full_scan)
            for _ in range(3):
                _run_job(ctx)
            new, mark = ctx.tracer.spans_from(None)
            assert ctx.tracer.spans_from(mark)[0] == []
            ctx.tracer.clear()
            # a mark from before clear() restarts at the first span
            _run_job(ctx)
            assert ctx.tracer.spans_from(mark)[0]


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
        # the scheduler's readiness gauges ride in [tasks]
        assert "ready" in frame
        assert "inflight" in frame

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
            health = [span.name for span in ctx.tracer.spans()
                      if span.kind == "health"]
        # cause before effect, both in the trace
        assert health.index("worker_heartbeat_missed") \
            < health.index("worker_respawn")
        assert run_top(path) == 0
        frame = capsys.readouterr().out
        for row in ("[memory]", "resident", "[tasks]", "tasks/s",
                    "[shuffle]", "bytes/s"):
            assert row in frame
        assert "[workers]  alive 2/2" in frame
        assert frame.count(" up ") >= 2
        assert "[health] WARN" in frame
        assert "worker_heartbeat_missed" in frame

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

    def test_imbalance_rule_fires_and_dedups_per_stage(self):
        ctx = ClusterContext(num_executors=2)
        monitor = HealthMonitor()
        ctx.nnz_stats.record("matmul-gather", [1.0, 1.0, 10.0])
        skewed = {"t": 1.0, "gauges": {"nnz.imbalance": 5.0}}
        events = monitor.evaluate(skewed, ctx)
        assert len(events) == 1
        assert events[0].rule == "nnz_imbalance"
        assert "matmul-gather" in events[0].message
        assert events[0].attrs["imbalance"] == 5.0
        assert events[0].attrs["threshold"] == NnzImbalance.THRESHOLD
        # same stage still hot: no re-emission
        assert monitor.evaluate(skewed, ctx) == []
        # balanced placement clears; a later skew re-fires
        balanced = {"t": 2.0, "gauges": {"nnz.imbalance": 1.1}}
        monitor.evaluate(balanced, ctx)
        assert monitor.status() == "ok"
        assert len(monitor.evaluate(skewed, ctx)) == 1

    def test_nnz_gauges_reach_prometheus_and_top(self):
        with ClusterContext(num_executors=2, trace=True) as ctx:
            ctx.nnz_stats.record("partition_by_nnz", [2.0, 6.0])
            _run_job(ctx)
            text = prometheus_text(collect_sample(ctx))
            frame = render_dashboard(ctx.tracer.spans())
        assert "spangle_nnz_imbalance 1.5" in text
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
