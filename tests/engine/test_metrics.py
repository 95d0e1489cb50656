"""Tests for the metric catalog, the registry/snapshot pair, and the
task-time histogram."""

import dataclasses
import pathlib

import pytest

from repro.engine import ClusterContext
from repro.engine.explain import stage_breakdown, task_time_histogram
from repro.engine.metrics import (
    COUNTER_FIELDS,
    METRICS,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.engine.telemetry import collect_sample, prometheus_text

ARCHITECTURE_MD = (pathlib.Path(__file__).resolve().parents[2]
                   / "docs" / "ARCHITECTURE.md")


def _counter_rows() -> list:
    return [metric.name for metric in METRICS if metric.kind == "counter"]


def render_metric_table() -> str:
    """The docs table, rendered from the catalog (the doc copies it)."""
    lines = ["| name | kind | unit | layer | help |",
             "|---|---|---|---|---|"]
    lines += [f"| `{metric.name}` | {metric.kind} | {metric.unit} | "
              f"`{metric.layer}` | {metric.help} |" for metric in METRICS]
    return "\n".join(lines)


class TestCatalog:
    def test_counter_rows_drive_snapshot_sample_and_prometheus(self):
        rows = _counter_rows()
        assert [f.name for f in dataclasses.fields(MetricsSnapshot)] == rows
        with ClusterContext(num_executors=2) as ctx:
            ctx.parallelize(range(40), 4).map(lambda x: (x % 3, x)) \
               .reduce_by_key(lambda a, b: a + b).collect()
            sample = collect_sample(ctx)
            text = prometheus_text(sample)
        assert list(sample["counters"]) == rows
        totals = [line.split()[0] for line in text.splitlines()
                  if not line.startswith("#")
                  and line.split()[0].endswith("_total")]
        assert totals == [f"spangle_{name}_total" for name in rows]

    def test_gauge_rows_are_the_sampled_gauges(self):
        gauge_rows = {metric.name for metric in METRICS
                      if metric.kind == "gauge"}
        with ClusterContext(num_executors=2, trace=True) as ctx:
            ctx.nnz_stats.record("graph-load", [5.0, 15.0])
            ctx.parallelize(range(8), 2).count()
            sample = next(span.attrs for span in ctx.tracer.spans()
                          if span.kind == "gauge")
            text = prometheus_text(sample)
        assert set(sample["gauges"]) == gauge_rows
        # every catalog row exports its help line
        for metric in METRICS:
            series = f"spangle_{metric.name.replace('.', '_')}" + (
                "_total" if metric.kind == "counter" else "")
            assert f"# HELP {series} {metric.help}" in text

    def test_rows_are_well_formed(self):
        names = [metric.name for metric in METRICS]
        assert len(names) == len(set(names))
        assert {metric.kind for metric in METRICS} == {"counter", "gauge"}

    def test_snapshot_subtraction_diffs_every_counter(self):
        lo = MetricsSnapshot()
        hi = MetricsSnapshot(**{name: 3 for name in COUNTER_FIELDS})
        delta = hi - lo
        assert all(
            getattr(delta, name) == 3 for name in COUNTER_FIELDS)
        assert delta.as_dict() == dict.fromkeys(COUNTER_FIELDS, 3)

    def test_architecture_doc_carries_the_catalog_table(self):
        doc = ARCHITECTURE_MD.read_text(encoding="utf-8")
        assert render_metric_table() in doc


class TestRegistryAdd:
    def test_add_moves_named_counters_and_attributes_read_them(self):
        registry = MetricsRegistry()
        registry.add(tasks_launched=2, shuffle_bytes=100)
        registry.add(tasks_launched=1)
        assert registry.tasks_launched == 3
        assert registry.snapshot() == MetricsSnapshot(tasks_launched=3,
                                                      shuffle_bytes=100)

    def test_add_raises_on_a_name_that_is_not_a_counter(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError, match="no_such_counter"):
            registry.add(no_such_counter=1)
        # gauge rows are not counters either
        with pytest.raises(TypeError):
            registry.add(**{"cache.blocks": 1})
        # a bad name moves nothing, even beside a good one
        with pytest.raises(TypeError):
            registry.add(cache_hits=1, cache_hit=1)
        assert registry.snapshot() == MetricsSnapshot()
        with pytest.raises(AttributeError):
            registry.no_such_counter  # noqa: B018 - the lookup raises


class TestWorkerReplyMerge:
    def test_process_reply_merge_ignores_unknown_and_zero_counters(self):
        with ClusterContext(num_executors=2, backend="process") as ctx:
            before = ctx.metrics.snapshot()
            reply = {"counters": {"cache_hits": 2, "shuffle_bytes": 0,
                                  "no_such_counter": 5, "cache.blocks": 7,
                                  "renamed_counter": 0}}
            ctx.process_runner._absorb(None, reply, None)
            assert ctx.metrics.snapshot() - before \
                == MetricsSnapshot(cache_hits=2)


class TestTaskTimeHistogram:
    def test_empty(self):
        assert task_time_histogram([]) == []

    def test_constant_durations_collapse_to_one_bucket(self):
        assert task_time_histogram([0.5, 0.5, 0.5]) == [(0.5, 0.5, 3)]

    def test_buckets_cover_the_range_and_count_everything(self):
        times = [0.1 * i for i in range(1, 11)]
        buckets = task_time_histogram(times, bins=5)
        assert len(buckets) == 5
        assert buckets[0][0] == min(times)
        assert abs(buckets[-1][1] - max(times)) < 1e-9
        assert sum(count for _lo, _hi, count in buckets) == len(times)

    def test_stage_breakdown_buckets_every_stages_tasks(self):
        with ClusterContext(num_executors=2, trace=True) as ctx:
            ctx.parallelize([(i % 3, i) for i in range(12)], 3) \
               .reduce_by_key(lambda a, b: a + b).collect()
            stages = ctx.tracer.last_job_profile().stages
        line = stage_breakdown(stages).splitlines()[-1]
        assert line.startswith("  task times: ")
        counts = [int(cell.rsplit("x", 1)[1]) for cell in line.split()[2:]]
        assert sum(counts) == 6   # 3 map tasks + 3 result tasks

