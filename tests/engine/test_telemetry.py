"""The continuous telemetry plane: sampler, store, health, exporters.

Covers the contracts ISSUE 8 pins down: the ring-buffer store stays
bounded, the sampler collects gauges from every subsystem without
perturbing results (byte-identity with telemetry off, across all three
backends), the Prometheus/JSON endpoints serve live data, the JSONL
sink rotates and replays into ``repro top``, health rules fire on
transitions (not continuously), and shutdown leaves no thread behind.
"""

import json
import pickle
import threading
import time
import urllib.request

import pytest

from repro.engine import ClusterContext
from repro.engine.metrics import COUNTER_FIELDS
from repro.engine.telemetry import (
    DEFAULT_INTERVAL_S,
    HealthMonitor,
    LedgerHighWatermark,
    SpillRateSpike,
    TelemetrySampler,
    TelemetrySink,
    TimeSeriesStore,
    WorkerHeartbeats,
    load_telemetry_jsonl,
    pid_alive,
    prometheus_text,
    snapshot_from_records,
)
from repro.engine.top import render_dashboard, run_top, sparkline


def _run_job(ctx):
    pairs = ctx.parallelize([(i % 7, float(i)) for i in range(500)], 4)
    return sorted(pairs.map(lambda kv: (kv[0], kv[1] * 2))
                  .reduce_by_key(lambda a, b: a + b).collect())


class TestTimeSeriesStore:
    def test_ring_buffer_stays_bounded(self):
        store = TimeSeriesStore(capacity=16)
        for i in range(100):
            store.record({"t": float(i), "gauges": {"g": i}})
        points = store.series("g")
        assert len(points) == 16
        assert points[0] == (84.0, 84)
        assert points[-1] == (99.0, 99)
        assert store.num_samples() == 100

    def test_counters_and_workers_flatten_into_series(self):
        store = TimeSeriesStore()
        store.record({"t": 1.0, "gauges": {"cache.resident_bytes": 10},
                      "counters": {"tasks_launched": 4},
                      "workers": {"123": {"alive": True, "tasks": 2,
                                          "last_task_s": 0.5}}})
        assert store.latest("counter.tasks_launched") == 4
        assert store.latest("worker.123.alive") == 1
        assert store.latest("worker.123.last_task_s") == 0.5
        assert "cache.resident_bytes" in store.names()

    def test_rate_differentiates_cumulative_series(self):
        store = TimeSeriesStore()
        for t, value in [(0.0, 0), (1.0, 10), (2.0, 30)]:
            store.record({"t": t, "gauges": {}, "counters": {"c": value}})
        assert store.rate("counter.c", window_s=10.0) \
            == pytest.approx(15.0)
        rates = store.rate_series("counter.c")
        assert [r for _t, r in rates] == [pytest.approx(10.0),
                                          pytest.approx(20.0)]

    def test_rate_of_missing_or_single_point_is_zero(self):
        store = TimeSeriesStore()
        assert store.rate("nope") == 0.0
        store.record({"t": 1.0, "gauges": {"g": 5}})
        assert store.rate("g") == 0.0


class TestWorkerHeartbeats:
    def test_register_beat_and_rows(self):
        beats = WorkerHeartbeats()
        beats.register([111, 222])
        beats.beat(111, task_wall_s=0.25)
        rows = beats.rows()
        assert rows[111]["tasks"] == 1
        assert rows[111]["last_task_s"] == 0.25
        assert rows[222]["tasks"] == 0
        assert beats.known_count() == 2
        assert beats.alive_count() == 2

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
        import os

        assert pid_alive(os.getpid())


class TestSamplerCollection:
    def test_sampler_collects_every_subsystem(self):
        ctx = ClusterContext(num_executors=2, use_threads=True,
                             cache_budget_bytes=1 << 20)
        try:
            sampler = TelemetrySampler(ctx, interval=60.0)
            _run_job(ctx)
            sample = sampler.sample_once()
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
            sampler.stop()
        finally:
            ctx.shutdown()

    def test_background_thread_accumulates_samples(self):
        ctx = ClusterContext(num_executors=2, telemetry_interval=0.05)
        try:
            _run_job(ctx)
            time.sleep(0.25)
            assert ctx.telemetry_sampler.store.num_samples() >= 3
            assert ctx.telemetry_sampler.running
        finally:
            ctx.shutdown()
        assert ctx.telemetry_sampler is None

    def test_telemetry_off_means_no_sampler(self):
        with ClusterContext(num_executors=2) as ctx:
            assert ctx.telemetry_sampler is None
            assert ctx.telemetry_server is None

    def test_interval_must_be_positive(self):
        ctx = ClusterContext(num_executors=2)
        try:
            with pytest.raises(ValueError):
                TelemetrySampler(ctx, interval=0.0)
        finally:
            ctx.shutdown()

    def test_sampler_holds_context_weakly(self):
        import weakref

        ctx = ClusterContext(num_executors=2)
        sampler = TelemetrySampler(ctx, interval=60.0)
        ref = weakref.ref(ctx)
        ctx.shutdown()
        del ctx
        # the sampler alone must not keep the context alive
        import gc

        gc.collect()
        assert ref() is None
        assert sampler.sample_once() is None
        sampler.stop()


class TestShutdownLifecycle:
    def test_shutdown_stops_threads_and_flushes_sink(self, tmp_path):
        path = str(tmp_path / "run.telemetry.jsonl")
        ctx = ClusterContext(num_executors=2, telemetry_interval=0.05,
                             telemetry_path=path)
        sampler = ctx.telemetry_sampler
        server = ctx.serve_telemetry()
        _run_job(ctx)
        before = threading.active_count()
        ctx.shutdown()
        assert not sampler.running
        assert sampler.sink is None  # closed and detached
        assert ctx.telemetry_server is None
        assert threading.active_count() < before
        # the sink flushed a valid, replayable log
        snapshot = load_telemetry_jsonl(path)
        assert snapshot["num_samples"] >= 1
        # the server socket is closed
        with pytest.raises(Exception):
            urllib.request.urlopen(server.url + "/health", timeout=0.5)

    def test_shutdown_takes_a_final_sample(self):
        ctx = ClusterContext(num_executors=2, telemetry_interval=60.0)
        sampler = ctx.telemetry_sampler
        initial = sampler.store.num_samples()
        _run_job(ctx)
        ctx.shutdown()
        assert sampler.store.num_samples() > initial
        assert sampler.store.latest("counter.jobs_run") >= 1


class TestHttpEndpoints:
    def test_endpoints_serve_live_gauges_during_a_job(self):
        ctx = ClusterContext(num_executors=2, telemetry_interval=0.25)
        try:
            server = ctx.serve_telemetry()
            _run_job(ctx)
            ctx.telemetry_sampler.sample_once()
            with urllib.request.urlopen(
                    server.url + "/metrics", timeout=5) as response:
                text = response.read().decode()
                ctype = response.headers["Content-Type"]
            assert ctype.startswith("text/plain")
            assert "spangle_tasks_launched_total" in text
            assert "spangle_cache_resident_bytes" in text
            assert "spangle_health_ok 1" in text
            with urllib.request.urlopen(
                    server.url + "/telemetry.json", timeout=5) as response:
                snap = json.loads(response.read())
            assert snap["counters"]["jobs_run"] >= 1
            assert snap["num_samples"] >= 1
            assert "counter.tasks_launched" in snap["series"]
            with urllib.request.urlopen(
                    server.url + "/health", timeout=5) as response:
                health = json.loads(response.read())
            assert health["status"] == "ok"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url + "/nope", timeout=5)
        finally:
            ctx.shutdown()

    def test_serve_telemetry_starts_sampler_when_off(self):
        ctx = ClusterContext(num_executors=2)
        try:
            assert ctx.telemetry_sampler is None
            server = ctx.serve_telemetry()
            assert ctx.telemetry_sampler is not None
            assert ctx.telemetry_sampler.interval == DEFAULT_INTERVAL_S
            # idempotent: a second call returns the same server
            assert ctx.serve_telemetry() is server
        finally:
            ctx.shutdown()


class TestPrometheusText:
    def test_format_shape(self):
        snapshot = {
            "counters": {"tasks_launched": 12, "jobs_run": 3},
            "gauges": {"cache.resident_bytes": 4096,
                       "pool.busy_threads": 2},
            "workers": {"42": {"alive": True, "tasks": 7,
                               "last_task_s": 0.125},
                        "43": {"alive": False, "tasks": 1}},
            "health": {"status": "warn", "events": [{"rule": "x"}]},
            "up_s": 1.5,
        }
        text = prometheus_text(snapshot)
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
        assert "spangle_health_ok 0" in lines
        assert text.endswith("\n")

    def test_counters_follow_counter_fields_order(self):
        snapshot = {"counters": {name: 1 for name in COUNTER_FIELDS},
                    "gauges": {}, "workers": {}, "health": {}}
        text = prometheus_text(snapshot)
        for name in COUNTER_FIELDS:
            assert f"spangle_{name}_total 1" in text

    def test_scheduler_gauges_render(self):
        """The pipelined scheduler's readiness gauges flow through the
        sampler into the Prometheus text unprefixed-by-pool."""
        snapshot = {
            "counters": {},
            "gauges": {"scheduler.ready_stages": 3,
                       "scheduler.inflight_stages": 2},
            "workers": {}, "health": {},
        }
        text = prometheus_text(snapshot)
        lines = text.splitlines()
        assert "spangle_scheduler_ready_stages 3" in lines
        assert "# TYPE spangle_scheduler_ready_stages gauge" in lines
        assert "spangle_scheduler_inflight_stages 2" in lines


class TestJsonlSink:
    def test_meta_line_then_samples(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = TelemetrySink(path, meta={"backend": "thread"})
        sink.write({"type": "sample", "t": 1.0, "gauges": {"g": 1}})
        sink.close()
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert lines[0]["type"] == "meta"
        assert lines[0]["format"] == "repro-telemetry"
        assert lines[0]["backend"] == "thread"
        assert lines[1] == {"type": "sample", "t": 1.0,
                            "gauges": {"g": 1}}

    def test_rotation_bounds_disk_usage(self, tmp_path):
        import os

        path = str(tmp_path / "t.jsonl")
        sink = TelemetrySink(path, rotate_bytes=2048)
        record = {"type": "sample", "t": 0.0,
                  "gauges": {"g": "x" * 100}}
        for _ in range(200):
            sink.write(record)
        sink.close()
        assert os.path.exists(path + ".1")
        assert os.path.getsize(path) <= 2048
        assert os.path.getsize(path + ".1") <= 2048
        # both generations start with a meta line
        for gen in (path, path + ".1"):
            first = json.loads(open(gen, encoding="utf-8").readline())
            assert first["type"] == "meta"

    def test_snapshot_from_records_replays_health(self):
        records = [
            {"type": "meta", "format": "repro-telemetry", "version": 1,
             "backend": "process"},
            {"type": "sample", "t": 1.0, "gauges": {"g": 1},
             "counters": {"jobs_run": 1}, "workers": {}},
            {"type": "health", "t": 1.5, "rule": "spill_rate_spike",
             "severity": "warning", "message": "spiking", "attrs": {}},
            {"type": "sample", "t": 2.0, "gauges": {"g": 3},
             "counters": {"jobs_run": 2}, "workers": {}},
        ]
        snap = snapshot_from_records(records)
        assert snap["meta"]["backend"] == "process"
        assert snap["gauges"]["g"] == 3
        assert snap["num_samples"] == 2
        assert snap["health"]["status"] == "warn"
        assert snap["health"]["events"][0]["rule"] == "spill_rate_spike"
        assert snap["series"]["g"] == [[1.0, 1], [2.0, 3]]


class TestHealthMonitor:
    def test_events_fire_on_transition_not_continuously(self):
        monitor = HealthMonitor(rules=[LedgerHighWatermark(0.9)])
        store = TimeSeriesStore()
        hot = {"t": 1.0, "gauges": {"cache.budget_bytes": 100,
                                    "cache.resident_bytes": 95}}
        cool = {"t": 2.0, "gauges": {"cache.budget_bytes": 100,
                                     "cache.resident_bytes": 10}}
        assert len(monitor.evaluate(hot, store, None)) == 1
        # still hot: no re-emission while the condition holds
        assert monitor.evaluate(hot, store, None) == []
        assert monitor.status() == "warn"
        # recovery clears the condition; the next violation re-fires
        monitor.evaluate(cool, store, None)
        assert monitor.status() == "ok"
        assert len(monitor.evaluate(hot, store, None)) == 1
        assert len(monitor.events()) == 2

    def test_spill_rate_rule_reads_the_store(self):
        monitor = HealthMonitor(
            rules=[SpillRateSpike(per_second=5.0, window_s=10.0)])
        store = TimeSeriesStore()
        store.record({"t": 0.0, "counters": {"cache_spills": 0}})
        store.record({"t": 1.0, "counters": {"cache_spills": 100}})
        sample = {"t": 1.0, "gauges": {}}
        events = monitor.evaluate(sample, store, None)
        assert len(events) == 1
        assert events[0].rule == "spill_rate_spike"
        assert events[0].attrs["spills_per_s"] == pytest.approx(100.0)

    def test_events_bridge_into_the_trace_stream(self):
        from repro.engine.tracing import SPAN_KINDS, Tracer

        assert "health" in SPAN_KINDS
        tracer = Tracer(enabled=True)
        monitor = HealthMonitor(tracer=tracer)
        monitor.emit("worker_heartbeat_missed", "warning",
                     "worker 99 gone", pid=99)
        spans = tracer.spans()
        assert len(spans) == 1
        assert spans[0].kind == "health"
        assert spans[0].name == "worker_heartbeat_missed"
        assert spans[0].attrs["pid"] == 99

    def test_configure_adjusts_default_rule_thresholds(self):
        monitor = HealthMonitor()
        monitor.configure(ledger_watermark=0.5, spill_rate_per_s=1.0,
                          heartbeat_miss_s=2.0, skew_threshold=9.0)
        by_type = {type(rule).__name__: rule for rule in monitor.rules}
        assert by_type["LedgerHighWatermark"].watermark == 0.5
        assert by_type["SpillRateSpike"].per_second == 1.0
        assert by_type["WorkerHeartbeatMissed"].miss_after_s == 2.0
        assert by_type["ShuffleSkew"].threshold == 9.0

    def test_health_report_renders(self):
        with ClusterContext(num_executors=2,
                            telemetry_interval=60.0) as ctx:
            _run_job(ctx)
            report = ctx.health()
            assert report.status == "ok"
            assert "Health: OK" in str(report)
            assert report.as_dict()["samples"] >= 1

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
            # health() evaluates the rules even with no sampler: the
            # dead row is still there, so the condition holds
            report = ctx.health()
            assert report.status == "warn"
            assert "stopped responding" in str(report)
            # once the row is retired (what the respawn path does),
            # the next report clears to ok — no stuck warning
            ctx.worker_heartbeats.forget([child.pid])
            assert ctx.health().status == "ok"


class TestDeterminismContract:
    """Sampler on vs off must be byte-identical for job results."""

    @pytest.mark.parametrize("kwargs", [
        {},                                        # serial
        {"use_threads": True},                     # thread
        {"backend": "process"},                    # process
    ], ids=["serial", "thread", "process"])
    def test_results_byte_identical_with_telemetry(self, kwargs):
        with ClusterContext(num_executors=2, **kwargs) as ctx:
            plain = _run_job(ctx)
            plain_counters = ctx.metrics.snapshot()
        with ClusterContext(num_executors=2, telemetry_interval=0.02,
                            **kwargs) as ctx:
            sampled = _run_job(ctx)
            sampled_counters = ctx.metrics.snapshot()
        assert pickle.dumps(plain) == pickle.dumps(sampled)
        # the sampler is read-only: logical counters agree too
        assert plain_counters == sampled_counters


class TestTopDashboard:
    def test_sparkline_scales_and_pads(self):
        line = sparkline([0, 1, 2, 3], width=8)
        assert len(line) == 8
        assert line.endswith("█")
        assert sparkline([], width=5) == "     "
        # constant non-zero series shows a flat low bar, not blanks
        assert set(sparkline([5, 5], width=2)) == {"▁"}

    def test_render_from_recorded_jsonl(self, tmp_path):
        path = str(tmp_path / "run.telemetry.jsonl")
        with ClusterContext(num_executors=2, telemetry_interval=0.05,
                            telemetry_path=path) as ctx:
            _run_job(ctx)
            time.sleep(0.15)
        snapshot = load_telemetry_jsonl(path)
        frame = render_dashboard(snapshot)
        assert "repro top" in frame
        assert "[memory]" in frame
        assert "[tasks]" in frame
        assert "[shuffle]" in frame
        assert "[health]" in frame
        assert "jobs=1" in frame
        # the pipelined scheduler's readiness gauges ride in [tasks]
        assert "ready" in frame
        assert "inflight" in frame

    def test_run_top_replay_exit_codes(self, tmp_path, capsys):
        path = str(tmp_path / "run.telemetry.jsonl")
        with ClusterContext(num_executors=2, telemetry_interval=0.05,
                            telemetry_path=path) as ctx:
            _run_job(ctx)
        assert run_top(path, replay=True) == 0
        assert "repro top" in capsys.readouterr().out
        assert run_top(str(tmp_path / "missing.jsonl"),
                       replay=True) == 2

    def test_run_top_live_once(self, capsys):
        ctx = ClusterContext(num_executors=2, telemetry_interval=0.25)
        try:
            server = ctx.serve_telemetry()
            _run_job(ctx)
            ctx.telemetry_sampler.sample_once()
            assert run_top(server.url, once=True) == 0
            out = capsys.readouterr().out
            assert "repro top" in out
            assert "[health]" in out
        finally:
            ctx.shutdown()

    def test_cli_wires_the_top_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "run.telemetry.jsonl")
        with ClusterContext(num_executors=2, telemetry_interval=0.05,
                            telemetry_path=path) as ctx:
            _run_job(ctx)
        assert main(["top", str(path), "--replay"]) == 0
        assert "repro top" in capsys.readouterr().out


class TestReportDriftGuards:
    """The reports and the telemetry plane read the one metric catalog,
    metrics.METRICS."""

    def test_sampled_counters_are_exactly_counter_fields(self):
        with ClusterContext(num_executors=2) as ctx:
            sampler = TelemetrySampler(ctx, interval=60.0)
            sample = sampler.sample_once()
            sampler.stop()
        assert set(sample["counters"]) == set(COUNTER_FIELDS)

    def test_memory_report_surfaces_optimizer_counters(self):
        with ClusterContext(num_executors=2) as ctx:
            from repro.engine.explain import memory_report

            report = memory_report(ctx)
        assert "optimizer_rules_fired" in report
        assert "optimizer_chunks_pruned" in report

    def test_stage_breakdown_appends_report_counters(self):
        from repro.engine.explain import stage_breakdown
        from repro.engine.metrics import MetricsSnapshot, StageTiming

        timings = [StageTiming("s", "result", 0.01, 2)]
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
    """ISSUE 9: the sparse execution tier's skew visibility."""

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
        from repro.engine.telemetry import collect_sample

        ctx = ClusterContext(num_executors=2)
        ctx.nnz_stats.record("graph-load", [5.0, 15.0])
        sample = collect_sample(ctx)
        assert sample["gauges"]["nnz.imbalance"] == pytest.approx(1.5)
        assert sample["gauges"]["nnz.partitions"] == 2

    def test_imbalance_rule_fires_and_dedups_per_stage(self):
        from repro.engine.telemetry import NnzImbalance

        ctx = ClusterContext(num_executors=2)
        monitor = HealthMonitor(rules=[NnzImbalance(threshold=2.0)])
        store = TimeSeriesStore()
        ctx.nnz_stats.record("matmul-gather", [1.0, 1.0, 10.0])
        skewed = {"t": 1.0, "gauges": {"nnz.imbalance": 2.5}}
        events = monitor.evaluate(skewed, store, ctx)
        assert len(events) == 1
        assert events[0].rule == "nnz_imbalance"
        assert "matmul-gather" in events[0].message
        assert events[0].attrs["imbalance"] == 2.5
        # same stage still hot: no re-emission
        assert monitor.evaluate(skewed, store, ctx) == []
        # balanced placement clears; a later skew re-fires
        balanced = {"t": 2.0, "gauges": {"nnz.imbalance": 1.1}}
        monitor.evaluate(balanced, store, ctx)
        assert monitor.status() == "ok"
        assert len(monitor.evaluate(skewed, store, ctx)) == 1

    def test_configure_sets_nnz_threshold(self):
        monitor = HealthMonitor()
        monitor.configure(nnz_imbalance=7.5)
        by_type = {type(rule).__name__: rule
                   for rule in monitor.rules}
        assert by_type["NnzImbalance"].threshold == 7.5

    def test_nnz_gauges_reach_prometheus_and_top(self):
        ctx = ClusterContext(num_executors=2,
                             telemetry_interval=60.0)
        try:
            ctx.nnz_stats.record("partition_by_nnz", [2.0, 6.0])
            ctx.telemetry_sampler.sample_once()
            snapshot = ctx.telemetry_sampler.snapshot()
            text = prometheus_text(snapshot)
            assert "spangle_nnz_imbalance" in text
            assert "nnz skew" in render_dashboard(snapshot)
        finally:
            ctx.shutdown()

    def test_partition_by_nnz_records_loads(self):
        import numpy as np

        from repro.core import ArrayRDD

        ctx = ClusterContext(num_executors=4, default_parallelism=4)
        rng = np.random.default_rng(5)
        dense = rng.random((64, 64))
        dense[rng.random((64, 64)) >= 0.05] = 0.0
        arr = ArrayRDD.from_numpy(ctx, dense, (8, 8),
                                  valid=dense != 0)
        balanced = arr.partition_by_nnz(4)
        stage, loads = ctx.nnz_stats.last()
        assert stage == "partition_by_nnz"
        assert len(loads) == 4
        values, _valid = balanced.collect_dense(fill=0.0)
        np.testing.assert_array_equal(values, dense)
        measured = balanced.nnz_by_partition()
        assert sum(measured) == int((dense != 0).sum())
        stage, _loads = ctx.nnz_stats.last()
        assert stage == "measured"

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
