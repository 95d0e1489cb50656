"""The stage scheduler's determinism contract and executor pool.

Serial (``use_threads=False``, the default), threaded, and
process-backend execution must return byte-identical results and
identical logical metrics — jobs, stages, tasks, shuffle records/bytes
— across every lineage shape the engine supports, including under
fault injection. Overlapped stage execution on parallel contexts must
match one-stage-at-a-time execution (what serial contexts run; forced
on parallel ones by ``tests._reference.engine.barrier_stages``) the
same way, and the columnar shuffle must match the per-record path it
falls back to (forced by ``generic_shuffle``). Task *ordering* and
wall-clock observations are allowed to differ.
"""

import contextlib
import operator
import pickle
import random
import threading
import time

import pytest

from repro.engine import ClusterContext, HashPartitioner
from repro.engine.explain import stage_breakdown, task_time_histogram
from repro.engine.pairs import cogroup
from repro.engine.tracing import logical_tree
from repro.errors import TaskFailure
from tests._reference.engine import barrier_stages, shuffle_path

# counters that must not depend on the execution mode
LOGICAL_FIELDS = (
    "jobs_run",
    "stages_run",
    "tasks_launched",
    "shuffle_records",
    "shuffle_bytes",
    "shuffles_performed",
    "shuffle_batches",
    "shuffle_batch_records",
    "disk_read_bytes",
    "disk_write_bytes",
    "recomputations",
    "task_retries",
)


def _scenario_narrow_chain(ctx):
    return (
        ctx.parallelize(range(200), 8)
        .map(lambda x: x * 3)
        .filter(lambda x: x % 2 == 0)
        .collect()
    )


def _scenario_reduce_by_key(ctx):
    pairs = ctx.parallelize([(i % 7, i) for i in range(210)], 6)
    return pairs.reduce_by_key(lambda a, b: a + b).collect()


def _scenario_group_by_key(ctx):
    pairs = ctx.parallelize([(i % 5, i * i) for i in range(100)], 5)
    return pairs.group_by_key().collect()


def _scenario_cogroup(ctx):
    left = ctx.parallelize([(i % 4, i) for i in range(40)], 4)
    right = ctx.parallelize([(i % 4, -i) for i in range(28)], 4)
    return left.cogroup(right).collect()


def _scenario_join(ctx):
    left = ctx.parallelize([(i % 6, i) for i in range(60)], 4)
    right = ctx.parallelize([(i % 6, chr(65 + i % 6)) for i in range(12)], 3)
    return left.join(right).collect()


def _scenario_nested_shuffles(ctx):
    pairs = ctx.parallelize([(i % 9, i) for i in range(180)], 6)
    first = pairs.reduce_by_key(lambda a, b: a + b)
    rekeyed = first.map(lambda kv: (kv[0] % 3, kv[1]))
    return rekeyed.reduce_by_key(lambda a, b: a + b,
                                 partitioner=HashPartitioner(3)).collect()


def _scenario_narrowed_shuffle(ctx):
    part = HashPartitioner(4)
    pairs = ctx.parallelize([(i % 11, i) for i in range(110)], 4) \
               .partition_by(part)
    return pairs.reduce_by_key(lambda a, b: a + b,
                               partitioner=part).collect()


def _scenario_zip_reduce(ctx):
    left = ctx.parallelize(range(50), 4)
    right = ctx.parallelize(range(25, 75), 4)
    zipped = left.zip_partitions(
        right, lambda a, b: [(x % 9, 1) for x in list(a) + list(b)])
    return zipped.reduce_by_key(lambda a, b: a + b).collect()


def _scenario_fail_partition(ctx):
    rdd = ctx.parallelize(range(48), 4).map(lambda x: x + 1).cache()
    first = rdd.collect()
    assert ctx.fail_partition(rdd, 2)
    return first + rdd.collect()


def _scenario_invalidate_shuffle(ctx):
    pairs = ctx.parallelize([(i % 3, i) for i in range(30)], 3)
    summed = pairs.reduce_by_key(lambda a, b: a + b)
    first = summed.collect()
    summed.invalidate_shuffle()
    return first + summed.collect()


SCENARIOS = {
    "narrow_chain": _scenario_narrow_chain,
    "reduce_by_key": _scenario_reduce_by_key,
    "group_by_key": _scenario_group_by_key,
    "cogroup": _scenario_cogroup,
    "join": _scenario_join,
    "nested_shuffles": _scenario_nested_shuffles,
    "narrowed_shuffle": _scenario_narrowed_shuffle,
    "zip_reduce": _scenario_zip_reduce,
    "fail_partition": _scenario_fail_partition,
    "invalidate_shuffle": _scenario_invalidate_shuffle,
}


def _run(use_threads, scenario, columnar=True, backend="thread",
         pipelined=True):
    sched = contextlib.nullcontext() if pipelined else barrier_stages()
    with shuffle_path(columnar), sched, \
            ClusterContext(num_executors=4, use_threads=use_threads,
                           backend=backend) as ctx:
        before = ctx.metrics.snapshot()
        result = scenario(ctx)
        delta = ctx.metrics.snapshot() - before
    return result, delta


class TestDeterminismContract:
    @pytest.mark.parametrize("columnar", [True, False],
                             ids=["columnar", "generic"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_serial_and_threaded_identical(self, name, columnar):
        scenario = SCENARIOS[name]
        serial_result, serial_delta = _run(False, scenario, columnar)
        threaded_result, threaded_delta = _run(True, scenario, columnar)
        # byte-identical results, ordering included
        assert pickle.dumps(serial_result) == pickle.dumps(threaded_result)
        for field_name in LOGICAL_FIELDS:
            assert getattr(serial_delta, field_name) \
                == getattr(threaded_delta, field_name), field_name

    @pytest.mark.parametrize("columnar", [True, False],
                             ids=["columnar", "generic"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_serial_and_process_identical(self, name, columnar):
        """The process backend holds the same contract as threading:
        forked workers, shared-memory block exchange and all, not one
        byte or logical counter may differ from serial execution."""
        scenario = SCENARIOS[name]
        serial_result, serial_delta = _run(False, scenario, columnar)
        process_result, process_delta = _run(False, scenario, columnar,
                                             backend="process")
        assert pickle.dumps(serial_result) == pickle.dumps(process_result)
        for field_name in LOGICAL_FIELDS:
            assert getattr(serial_delta, field_name) \
                == getattr(process_delta, field_name), field_name

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_columnar_matches_generic(self, name):
        """The packed shuffle data plane is an invisible optimization:
        forcing the per-record path must not change a single result
        byte."""
        scenario = SCENARIOS[name]
        columnar_result, _ = _run(False, scenario, columnar=True)
        generic_result, _ = _run(False, scenario, columnar=False)
        assert pickle.dumps(columnar_result) == pickle.dumps(generic_result)

    def test_narrowed_shuffle_moves_nothing_in_both_modes(self):
        for use_threads in (False, True):
            _result, delta = _run(use_threads, _scenario_narrowed_shuffle)
            # one shuffle from partition_by; the co-partitioned
            # reduce_by_key narrows and moves nothing extra
            assert delta.shuffles_performed == 1


def _random_dag_scenario(seed):
    """A deterministic random multi-shuffle DAG built from ``seed``.

    Joins, cogroups, and full outer joins combine random pair-RDD leaves
    until one remains — diamonds and chains of varying width, always
    over ``(int, int)`` records so every mode shuffles the same bytes.
    """

    def scenario(ctx):
        rng = random.Random(seed)

        def leaf():
            n = rng.randint(20, 60)
            k = rng.randint(3, 7)
            return ctx.parallelize([(i % k, i) for i in range(n)],
                                   rng.randint(2, 4))

        rdds = [leaf() for _ in range(rng.randint(2, 4))]
        while len(rdds) > 1:
            a = rdds.pop(rng.randrange(len(rdds)))
            b = rdds.pop(rng.randrange(len(rdds)))
            op = rng.choice(("join", "cogroup", "full_outer_join"))
            if op == "join":
                merged = a.join(b).map_values(lambda v: v[0] + v[1])
            elif op == "cogroup":
                merged = a.cogroup(b).map_values(
                    lambda groups: sum(groups[0]) - sum(groups[1]))
            else:
                merged = a.full_outer_join(b).map_values(
                    lambda v: (v[0] or 0) + (v[1] or 0))
            if rng.random() < 0.5:
                merged = merged.map_values(lambda v: v * 2)
            rdds.append(merged)
        return rdds[0].collect()

    return scenario


class TestPipelinedContract:
    """pipelined == barrier byte-identity, across all three backends."""

    MODES = {
        "serial": dict(use_threads=False, backend="thread"),
        "thread": dict(use_threads=True, backend="thread"),
        "process": dict(use_threads=False, backend="process"),
    }

    # the process backend forks workers per context, so it covers the
    # multi-stage scenarios (where pipelining actually engages) rather
    # than re-running every single-stage shape at fork cost
    PROCESS_SCENARIOS = ("cogroup", "join", "nested_shuffles")

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pipelined_matches_barrier(self, name, mode):
        if mode == "process" and name not in self.PROCESS_SCENARIOS:
            pytest.skip("process backend covers multi-stage scenarios")
        scenario = SCENARIOS[name]
        kwargs = self.MODES[mode]
        barrier_result, barrier_delta = _run(
            scenario=scenario, pipelined=False, **kwargs)
        pipelined_result, pipelined_delta = _run(
            scenario=scenario, pipelined=True, **kwargs)
        assert pickle.dumps(barrier_result) \
            == pickle.dumps(pipelined_result)
        for field_name in LOGICAL_FIELDS:
            assert getattr(barrier_delta, field_name) \
                == getattr(pipelined_delta, field_name), field_name

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_dag_contract(self, seed, mode):
        scenario = _random_dag_scenario(seed)
        kwargs = self.MODES[mode]
        barrier_result, barrier_delta = _run(
            scenario=scenario, pipelined=False, **kwargs)
        pipelined_result, pipelined_delta = _run(
            scenario=scenario, pipelined=True, **kwargs)
        assert pickle.dumps(barrier_result) \
            == pickle.dumps(pipelined_result)
        for field_name in LOGICAL_FIELDS:
            assert getattr(barrier_delta, field_name) \
                == getattr(pipelined_delta, field_name), field_name


class TestPipelinedScheduling:
    """DAG-shape behavior of the event-driven scheduler."""

    @staticmethod
    def _diamond(ctx, delay=0.0):
        def slow(kv):
            if delay:
                time.sleep(delay)
            return kv

        left = ctx.parallelize([(i % 4, i) for i in range(8)], 2) \
                  .map(slow)
        right = ctx.parallelize([(i % 4, -i) for i in range(8)], 2) \
                   .map(slow)
        return left.cogroup(right)

    def test_diamond_overlap_and_identity(self):
        """The two independent sides of a cogroup overlap in time under
        the pipelined scheduler, and the bytes match barrier mode."""
        with barrier_stages(), \
                ClusterContext(num_executors=4, use_threads=True) as ctx:
            barrier = self._diamond(ctx, delay=0.05).collect()
        with ClusterContext(num_executors=4, use_threads=True,
                            trace=True) as ctx:
            pipelined = self._diamond(ctx, delay=0.05).collect()
            spans = {span.name: span for span in ctx.tracer.spans()
                     if span.kind == "shuffle"}
            left, right = spans["cogroup[0]"], spans["cogroup[1]"]
            # both sides launched before either finished
            assert left.start_s < right.end_s
            assert right.start_s < left.end_s
            assert left.attrs["depends_on"] == []
            assert left.attrs["launched_at"] >= left.attrs["ready_at"]
        assert pickle.dumps(barrier) == pickle.dumps(pipelined)

    def test_logical_trace_matches_barrier(self):
        """Span names, kinds, parent edges, and non-timing attributes
        are identical between barrier and pipelined runs."""

        def scenario(ctx):
            left = ctx.parallelize([(i % 4, i) for i in range(24)], 3)
            right = ctx.parallelize([(i % 4, -i) for i in range(24)], 3)
            return left.join(right).collect()

        with barrier_stages(), \
                ClusterContext(num_executors=4, use_threads=True,
                               trace=True) as ctx:
            barrier_result = scenario(ctx)
            barrier_tree = logical_tree(ctx.tracer.spans())
        with ClusterContext(num_executors=4, use_threads=True,
                            trace=True) as ctx:
            pipelined_result = scenario(ctx)
            pipelined_tree = logical_tree(ctx.tracer.spans())
        assert barrier_result == pipelined_result
        assert barrier_tree == pipelined_tree

    def test_stage_graph_edges(self):
        """Chained shuffles produce chained dependency edges; the
        result stage depends on the last one."""
        with ClusterContext(num_executors=2) as ctx:
            pairs = ctx.parallelize([(i % 9, i) for i in range(18)], 3)
            first = pairs.reduce_by_key(lambda a, b: a + b)
            second = first.map(lambda kv: (kv[0] % 3, kv[1])) \
                .reduce_by_key(lambda a, b: a + b,
                               partitioner=HashPartitioner(3))
            stages, result_deps = ctx.scheduler.stage_graph(second)
            assert len(stages) == 2
            assert stages[0].deps == []
            assert stages[1].deps == [stages[0]]
            assert stages[0].children == [stages[1]]
            assert result_deps == [stages[1]]
            assert stages[1].depends_on() == [stages[0].edge_name]

    def test_diamond_stage_graph_is_independent(self):
        with ClusterContext(num_executors=2) as ctx:
            grouped = self._diamond(ctx)
            stages, result_deps = ctx.scheduler.stage_graph(grouped)
            assert len(stages) == 2
            assert stages[0].deps == [] and stages[1].deps == []
            assert sorted(stage.which for stage in stages) == [0, 1]
            assert result_deps == stages



def _keyed(ctx, sign=1):
    return ctx.parallelize([(i % 6, sign * i) for i in range(24)], 3)


def _graph(ctx, rdd):
    """``stage_graph(rdd)`` as positions ``(node, which)``, each stage's
    dependency positions and ``depends_on``, and the result's deps."""
    stages, result_deps = ctx.scheduler.stage_graph(rdd)
    position = {id(stage): i for i, stage in enumerate(stages)}
    return ([(stage.node, stage.which) for stage in stages],
            [[position[id(dep)] for dep in stage.deps] for stage in stages],
            [stage.depends_on() for stage in stages],
            [position[id(dep)] for dep in result_deps])


class TestStageGraphPositions:
    """Pinned stage positions and edges: parents first, a node's own
    wide slots after everything beneath them, in slot order."""

    def test_two_wide_slots_each_above_its_own_shuffle(self):
        with ClusterContext(num_executors=2) as ctx:
            left = _keyed(ctx).reduce_by_key(operator.add)
            right = _keyed(ctx, -1).reduce_by_key(operator.add)
            grouped = cogroup([left.map(_swap), right.map(_swap)],
                              HashPartitioner(2))
            positions, deps, depends_on, result = _graph(ctx, grouped)
        assert positions == [(left, 0), (right, 0), (grouped, 0),
                             (grouped, 1)]
        assert deps == [[], [], [0], [1]]
        assert depends_on == [
            [], [], [f"{left.shuffle_label(0)}#{left.rdd_id}"],
            [f"{right.shuffle_label(0)}#{right.rdd_id}"]]
        assert result == [2, 3]

    def test_fully_cached_subtree_hides_its_shuffle(self):
        with ClusterContext(num_executors=2) as ctx:
            cached = _keyed(ctx).reduce_by_key(operator.add).cache()
            cached.count()
            assert cached.invalidate_shuffle() == 1
            above = cached.map(_swap).reduce_by_key(
                operator.add, partitioner=HashPartitioner(2))
            positions, deps, depends_on, result = _graph(ctx, above)
            # the cache hides the dropped map output: the job runs no
            # stage beneath ``cached``
            assert sorted(above.collect()) == sorted(
                _swap(kv) for kv in _folded())
        assert positions == [(above, 0)]
        assert deps == [[]] and depends_on == [[]]
        assert result == [0]

    def test_materialized_shuffle_is_transparent(self):
        with ClusterContext(num_executors=2) as ctx:
            first = _keyed(ctx).reduce_by_key(operator.add)
            first.collect()
            second = first.map(_swap).reduce_by_key(
                operator.add, partitioner=HashPartitioner(2))
            third = second.map(_swap).reduce_by_key(
                operator.add, partitioner=HashPartitioner(3))
            positions, deps, depends_on, result = _graph(ctx, third)
        assert positions == [(second, 0), (third, 0)]
        assert deps == [[], [0]]
        assert depends_on == [
            [], [f"{second.shuffle_label(0)}#{second.rdd_id}"]]
        assert result == [1]


def _swap(kv):
    return kv[1], kv[0]


def _folded():
    sums = {}
    for i in range(24):
        sums[i % 6] = sums.get(i % 6, 0) + i
    return sorted(sums.items())


class TestExecutorPool:
    def test_result_order_preserved(self):
        """Result rows come back in partition order whatever order the
        executors finish in."""

        def late_first(index, part):
            time.sleep(0.002 * (20 - index))
            return [x * x for x in part]

        with ClusterContext(num_executors=4, use_threads=True) as ctx:
            got = ctx.parallelize(range(20), 20) \
                     .map_partitions_with_index(late_first).collect()
        assert got == [x * x for x in range(20)]

    def test_nested_shuffle_job_runs_inline(self):
        """A task that runs a job with a shuffle, on a one-executor
        pool: the nested job cannot wait for a pool slot, so its stages
        run inline on the executor thread instead of deadlocking."""
        ctx = ClusterContext(num_executors=1, use_threads=True)

        def nested(x):
            assert ctx.executor_pool.in_worker()
            pairs = ctx.parallelize([(i % 3, i + x) for i in range(12)], 3)
            return sorted(pairs.reduce_by_key(lambda a, b: a + b).collect())

        outcome = {}

        def job():
            outcome["got"] = ctx.parallelize(range(4), 2).map(nested) \
                                .collect()

        runner = threading.Thread(target=job, daemon=True)
        runner.start()
        runner.join(timeout=60)
        alive = runner.is_alive()
        ctx.shutdown()
        assert not alive, "nested job deadlocked"
        expected = []
        for x in range(4):
            sums = {}
            for i in range(12):
                sums[i % 3] = sums.get(i % 3, 0) + i + x
            expected.append(sorted(sums.items()))
        assert outcome["got"] == expected

    def test_pool_persists_across_jobs(self):
        with ClusterContext(num_executors=4, use_threads=True) as ctx:
            ctx.parallelize(range(32), 4).map(lambda x: x + 1).collect()
            pool = ctx.executor_pool
            assert pool.started
            inner = pool._executor
            ctx.parallelize([(i % 3, i) for i in range(30)], 4) \
               .reduce_by_key(lambda a, b: a + b).collect()
            assert ctx.executor_pool is pool
            assert pool._executor is inner

    def test_serial_context_never_starts_pool(self):
        with ClusterContext(num_executors=4, use_threads=False) as ctx:
            ctx.parallelize(range(32), 4).map(lambda x: x + 1).collect()
            assert not ctx.executor_pool.started

    def test_shutdown_then_reuse(self):
        ctx = ClusterContext(num_executors=2, use_threads=True)
        ctx.parallelize(range(8), 4).collect()
        ctx.shutdown()
        assert not ctx.executor_pool.started
        # the pool restarts lazily; the context stays usable
        assert ctx.parallelize(range(8), 4).collect() == list(range(8))
        ctx.shutdown()

    def test_shutdown_mid_job_raises_clear_error(self):
        """Regression: a pool shut down while a job is in flight used to
        silently re-create its executor on the next ``_ensure``. It must
        instead fail the running job with a clear ``RuntimeError`` and
        refuse to be reused."""
        release = threading.Event()
        started = threading.Event()

        def task(i):
            started.set()
            release.wait(timeout=10)
            return i

        ctx = ClusterContext(num_executors=2, use_threads=True)
        failure = {}

        def run_job():
            try:
                ctx.parallelize(range(16), 16).map(task).collect()
            except RuntimeError as exc:
                failure["error"] = exc

        job = threading.Thread(target=run_job)
        job.start()
        try:
            assert started.wait(timeout=10)
            ctx.executor_pool.shutdown()
        finally:
            release.set()
        job.join(timeout=10)
        assert not job.is_alive()
        assert "shut down" in str(failure["error"])
        # the pool stays broken — no silent executor re-creation
        with pytest.raises(RuntimeError, match="cannot be reused"):
            ctx.parallelize(range(4), 4).collect()
        ctx.shutdown()


class TestConcurrencySafety:
    def test_cached_partition_computed_once_under_concurrency(self):
        with ClusterContext(num_executors=8, use_threads=True) as ctx:
            counts = {}
            guard = threading.Lock()

            def counting(index, part):
                with guard:
                    counts[index] = counts.get(index, 0) + 1
                return part

            base = ctx.parallelize(range(64), 8) \
                      .map_partitions_with_index(counting).cache()
            # four shuffle map stages read every cached partition at once
            fan = cogroup([base.map(lambda x: (x, x)) for _ in range(4)])
            assert sorted(fan.collect()) \
                == [(x, [[x]] * 4) for x in range(64)]
            assert len(counts) == 8
            assert all(count == 1 for count in counts.values())

    def test_flaky_tasks_retry_under_threads(self):
        ctx = ClusterContext(num_executors=4, use_threads=True)
        attempts = {}
        guard = threading.Lock()

        def flaky(index, part):
            with guard:
                seen = attempts.get(index, 0)
                attempts[index] = seen + 1
            if seen == 0:
                raise IOError(f"transient failure in partition {index}")
            return part

        got = ctx.parallelize(range(40), 4) \
                 .map_partitions_with_index(flaky).collect()
        assert got == list(range(40))
        assert ctx.metrics.task_retries == 4
        ctx.shutdown()

    def test_exhausted_retries_surface_under_threads(self):
        ctx = ClusterContext(num_executors=4, use_threads=True)

        def boom(x):
            if x == 13:
                raise ValueError("deterministic failure")
            return x

        with pytest.raises(TaskFailure) as excinfo:
            ctx.parallelize(range(32), 4).map(boom).collect()
        assert isinstance(excinfo.value.cause, ValueError)
        ctx.shutdown()

    def test_concurrent_jobs_materialize_shared_shuffle_once(self):
        """Two driver threads racing through one shared shuffle stage
        compute each map partition exactly once — the per-stage
        materialize lock makes concurrent materialization idempotent."""
        with ClusterContext(num_executors=4, use_threads=True) as ctx:
            counts = {}
            guard = threading.Lock()

            def counting(index, part):
                with guard:
                    counts[index] = counts.get(index, 0) + 1
                return part

            shared = ctx.parallelize([(i % 5, i) for i in range(60)], 6) \
                        .map_partitions_with_index(counting) \
                        .reduce_by_key(lambda a, b: a + b)
            gate = threading.Barrier(2)
            results = {}
            errors = []

            def job(name, derive):
                try:
                    gate.wait(timeout=10)
                    results[name] = derive(shared).collect()
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(
                    target=job,
                    args=("double", lambda r: r.map_values(
                        lambda v: v * 2))),
                threading.Thread(
                    target=job,
                    args=("keys", lambda r: r.map(lambda kv: kv[0]))),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            expected = {}
            for i in range(60):
                expected[i % 5] = expected.get(i % 5, 0) + i
            assert sorted(results["double"]) \
                == sorted((k, v * 2) for k, v in expected.items())
            assert sorted(results["keys"]) == sorted(expected)
            assert len(counts) == 6
            assert all(count == 1 for count in counts.values()), counts

    def test_shutdown_mid_shuffle_stage_raises_clear_error(self):
        """Shutting the pool down while shuffle map tasks are queued
        surfaces one clear diagnostic, not a traceback storm of
        cancelled futures."""
        started = threading.Event()
        release = threading.Event()

        def blocking(kv):
            started.set()
            release.wait(timeout=10)
            return kv

        ctx = ClusterContext(num_executors=2, use_threads=True)
        failures = []

        def job():
            try:
                left = ctx.parallelize(
                    [(i % 4, i) for i in range(32)], 8).map(blocking)
                right = ctx.parallelize(
                    [(i % 4, -i) for i in range(32)], 8)
                left.join(right).collect()
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        thread = threading.Thread(target=job)
        thread.start()
        try:
            assert started.wait(timeout=10)
            ctx.executor_pool.shutdown()
        finally:
            release.set()
            thread.join(timeout=30)
            ctx.shutdown()
        assert len(failures) == 1
        assert isinstance(failures[0], RuntimeError)
        assert "shut down" in str(failures[0])


class TestMetricsAccounting:
    """``measure()`` reads stage and task wall times off the trace."""

    @staticmethod
    def _job(ctx):
        ctx.parallelize([(i % 5, i) for i in range(50)], 5) \
           .reduce_by_key(lambda a, b: a + b).collect()

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_stage_timings_and_utilization(self, mode):
        with ClusterContext(num_executors=4, trace=True,
                            **TestPipelinedContract.MODES[mode]) as ctx:
            with ctx.measure() as measurement:
                self._job(ctx)
            profiles = ctx.tracer.job_profiles()
        kinds = [timing.kind for timing in measurement.stage_timings]
        assert kinds == ["shuffle", "result"]
        assert measurement.stage_timings[0].num_tasks == 5
        # 5 shuffle map tasks + 5 result tasks
        assert len(measurement.task_times) == 10
        assert measurement.busy_task_s >= 0.0
        assert 0.0 <= measurement.utilization
        rendered = stage_breakdown(measurement.stage_timings)
        assert "shuffle" in rendered and "result" in rendered
        # the measured stages are the tracer's job-profile stages
        assert [(stage.kind, stage.num_tasks, len(stage.task_times))
                for stage in measurement.stage_timings] \
            == [(stage.kind, stage.num_tasks, len(stage.task_times))
                for profile in profiles for stage in profile.stages]

    def test_untraced_measure_reports_wall_and_delta(self):
        ctx = ClusterContext(num_executors=4)
        with ctx.measure() as measurement:
            self._job(ctx)
        assert measurement.wall_s > 0.0
        assert measurement.delta.stages_run == 2
        assert measurement.delta.tasks_launched == 10
        assert measurement.report.wall_clock_s == measurement.wall_s
        assert list(measurement.stage_timings) == []
        assert list(measurement.task_times) == []
        assert measurement.utilization == 0.0

    def test_task_time_histogram_buckets(self):
        ctx = ClusterContext(num_executors=2, trace=True)
        ctx.parallelize(range(40), 4).map(lambda x: x).collect()
        (stage,) = ctx.tracer.last_job_profile().stages
        histogram = task_time_histogram(stage.task_times, bins=4)
        assert sum(count for _lo, _hi, count in histogram) == 4
