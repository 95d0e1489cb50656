"""Tests for the span tracer, job profiles, and trace exporters."""

import json

import numpy as np
import pytest

from repro import ArrayRDD
from repro.engine import ClusterContext
from repro.engine.tracing import (
    NULL_SPAN,
    Span,
    Tracer,
    load_jsonl,
    logical_tree,
    profiles_from_spans,
)


def traced_ctx(**kwargs):
    kwargs.setdefault("num_executors", 4)
    kwargs.setdefault("default_parallelism", 4)
    kwargs.setdefault("trace", True)
    return ClusterContext(**kwargs)


def shuffle_job(ctx):
    return (ctx.parallelize(range(200), 4)
               .map(lambda x: (x % 7, x))
               .reduce_by_key(lambda a, b: a + b)
               .collect())


def fused_array_job(ctx):
    rng = np.random.default_rng(7)
    data = rng.random((64, 64))
    valid = rng.random((64, 64)) < 0.4
    arr = ArrayRDD.from_numpy(ctx, data, (16, 16), valid=valid)
    fused = ((arr * 2.0 + 1.0)
             .map_values(lambda a: a - 0.5)
             .filter(lambda a: a > 0.0))
    return fused.sum()


class TestDisabledTracer:
    def test_default_context_records_nothing(self):
        ctx = ClusterContext(num_executors=2)
        assert not ctx.tracer.enabled
        shuffle_job(ctx)
        assert ctx.tracer.spans() == []
        assert ctx.tracer.job_profiles() == []

    def test_disabled_span_is_the_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x", "job") is NULL_SPAN
        assert tracer.start("x", "job") is NULL_SPAN
        tracer.event("x", "cache")
        with tracer.span("x", "stage") as span:
            span.set(bytes=1)    # must be a silent no-op
        assert tracer.spans() == []


class TestSpanTree:
    def test_job_stage_task_hierarchy(self):
        ctx = traced_ctx()
        shuffle_job(ctx)
        spans = ctx.tracer.spans()
        by_id = {span.span_id: span for span in spans}

        jobs = [s for s in spans if s.kind == "job"]
        assert len(jobs) == 1
        assert jobs[0].parent_id is None

        shuffles = [s for s in spans if s.kind == "shuffle"]
        assert len(shuffles) == 1
        assert shuffles[0].parent_id == jobs[0].span_id
        # map-side combining: 4 map partitions x 7 keys
        assert shuffles[0].attrs["records"] == 28
        assert shuffles[0].attrs["bytes"] > 0

        stages = [s for s in spans if s.kind == "stage"]
        assert len(stages) == 1
        assert stages[0].parent_id == jobs[0].span_id

        tasks = [s for s in spans if s.kind == "task"]
        assert len(tasks) == 8    # 4 map tasks + 4 result tasks
        for task in tasks:
            parent = by_id[task.parent_id]
            assert parent.kind in ("shuffle", "stage")
            assert "partition" in task.attrs

    def test_timings_are_sane(self):
        ctx = traced_ctx()
        shuffle_job(ctx)
        for span in ctx.tracer.spans():
            assert span.end_s >= span.start_s

    def test_plan_span_carries_kernels_and_chunk_modes(self):
        ctx = traced_ctx()
        fused_array_job(ctx)
        plans = [s for s in ctx.tracer.spans() if s.kind == "plan"]
        assert plans, "fused chain should record plan spans"
        for span in plans:
            # the plan folds the adjacent scalar ops into one kernel
            assert span.attrs["kernels"] == [
                "fold[mul+add]", "map", "filter"]
            assert span.attrs["chunks_in"] > 0
            assert span.attrs["chunks_out"] > 0
        mode_chunks = sum(
            span.attrs.get(f"chunks_{mode}", 0)
            for span in plans
            for mode in ("dense", "sparse", "super_sparse"))
        assert mode_chunks == sum(s.attrs["chunks_out"] for s in plans)

    def test_cache_and_broadcast_spans(self):
        ctx = traced_ctx()
        ctx.broadcast([1, 2, 3])
        cached = ctx.parallelize(range(40), 4).map(lambda x: x).persist()
        cached.count()
        cached.count()
        kinds = {span.kind for span in ctx.tracer.spans()}
        assert {"broadcast", "cache"} <= kinds
        hits = [s for s in ctx.tracer.spans()
                if s.kind == "cache" and s.name == "cache_hit"]
        assert len(hits) == 4    # second count served from cache

    def test_abandoned_children_cannot_poison_the_stack(self):
        tracer = Tracer(enabled=True)
        outer = tracer.start("outer", "job")
        tracer.start("inner", "stage")    # never finished (error path)
        tracer.finish(outer)
        assert tracer.current_span() is None
        after = tracer.start("next", "job")
        assert after.parent_id is None


class TestLogicalDeterminism:
    def _run(self, use_threads):
        ctx = traced_ctx(use_threads=use_threads)
        total = fused_array_job(ctx)
        rows = shuffle_job(ctx)
        return logical_tree(ctx.tracer.spans()), total, sorted(rows)

    def test_serial_and_threaded_trees_match(self):
        tree_serial, total_serial, rows_serial = self._run(False)
        tree_threaded, total_threaded, rows_threaded = self._run(True)
        assert rows_serial == rows_threaded
        assert total_serial == pytest.approx(total_threaded)
        assert tree_serial == tree_threaded

    def test_different_workloads_differ(self):
        ctx_a = traced_ctx()
        shuffle_job(ctx_a)
        ctx_b = traced_ctx()
        fused_array_job(ctx_b)
        assert logical_tree(ctx_a.tracer.spans()) \
            != logical_tree(ctx_b.tracer.spans())


class TestJobProfile:
    def test_profile_aggregates_the_job(self):
        ctx = traced_ctx()
        shuffle_job(ctx)
        profile = ctx.tracer.last_job_profile()
        assert profile.name == "reduce_by_key"
        assert [stage.kind for stage in profile.stages] \
            == ["shuffle", "result"]
        assert all(stage.num_tasks == 4 for stage in profile.stages)
        assert profile.critical_path_s > 0
        assert len(profile.critical_path) == 2
        assert 0.0 < profile.utilization <= 1.0
        assert profile.stages[0].records == 28    # map-side combined

    def test_render_is_a_stage_breakdown_report(self):
        ctx = traced_ctx()
        fused_array_job(ctx)
        report = ctx.tracer.last_job_profile().render()
        assert "Stage breakdown" in report
        assert "critical path" in report
        assert "chunk modes" in report

    def test_as_dict_round_trips_through_json(self):
        ctx = traced_ctx()
        shuffle_job(ctx)
        payload = json.dumps(ctx.tracer.last_job_profile().as_dict())
        assert json.loads(payload)["job"] == "reduce_by_key"


class TestExporters:
    def test_jsonl_round_trip_reproduces_the_profile(self, tmp_path):
        ctx = traced_ctx()
        shuffle_job(ctx)
        live = ctx.tracer.job_profiles()

        path = tmp_path / "run.trace.jsonl"
        ctx.tracer.export_jsonl(str(path))
        meta, spans = load_jsonl(str(path))
        assert meta["format"] == "repro-trace"
        assert meta["num_executors"] == 4
        assert len(spans) == len(ctx.tracer.spans())

        replayed = profiles_from_spans(
            spans, num_executors=meta["num_executors"])
        assert len(replayed) == len(live)
        assert replayed[0].as_dict() == live[0].as_dict()

    def test_chrome_trace_is_valid_trace_event_json(self, tmp_path):
        ctx = traced_ctx()
        shuffle_job(ctx)
        path = tmp_path / "run.chrome.json"
        ctx.tracer.export_chrome_trace(str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        completes = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(completes) == len(ctx.tracer.spans())
        assert metas, "expected thread_name metadata events"
        for event in completes:
            assert event["ts"] >= 0 and event["dur"] >= 0

    @pytest.mark.parametrize("meta", [
        {"type": "meta", "format": "repro-telemetry", "version": 1},
        {"type": "meta", "format": "repro-trace", "version": 2},
        {"type": "span"},
    ], ids=["other-format", "future-version", "no-meta-line"])
    def test_load_rejects_anything_but_trace_v1(self, tmp_path, meta):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps(meta) + "\n")
        with pytest.raises(ValueError, match="not a repro-trace v1 log"):
            load_jsonl(str(path))

    def test_span_dict_round_trip(self):
        span = Span(7, 3, "s", "stage", 1.5, "main", {"bytes": 9})
        span.end_s = 2.0
        clone = Span.from_dict(json.loads(json.dumps(span.as_dict())))
        assert clone.as_dict() == span.as_dict()


class TestCliTrace:
    def test_trace_command_replays_a_saved_log(self, tmp_path, capsys):
        from repro.cli import main

        ctx = traced_ctx()
        shuffle_job(ctx)
        log = tmp_path / "run.trace.jsonl"
        chrome = tmp_path / "run.chrome.json"
        ctx.tracer.export_jsonl(str(log))

        assert main(["trace", str(log), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "Stage breakdown" in out
        assert "critical path" in out
        assert "1 jobs" in out
        assert chrome.exists()

    def test_profile_alias_and_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["profile", str(tmp_path / "nope.jsonl")]) == 2

    @pytest.mark.parametrize("command", ["trace", "top"])
    def test_foreign_log_exits_2_naming_its_format(self, tmp_path, capsys,
                                                   command):
        from repro.cli import main

        log = tmp_path / "run.telemetry.jsonl"
        log.write_text(json.dumps({"type": "meta",
                                   "format": "repro-telemetry",
                                   "version": 1}) + "\n"
                       + json.dumps({"type": "sample", "t": 1.0}) + "\n")
        assert main([command, str(log)]) == 2
        err = capsys.readouterr().err
        assert "format='repro-telemetry'" in err
        assert "version=1" in err
