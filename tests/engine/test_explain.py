"""Tests for the stage-plan explainer."""

import pytest

from repro.engine import ClusterContext, HashPartitioner
from repro.engine.explain import (
    count_stages,
    explain,
    fused_pipelines,
    stage_plan,
)


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


class TestStagePlan:
    def test_narrow_pipeline_is_one_stage(self, ctx):
        rdd = ctx.parallelize(range(10), 2) \
                 .map(lambda x: x + 1) \
                 .filter(lambda x: x % 2 == 0) \
                 .map(lambda x: x * 3)
        assert count_stages(rdd) == 1
        plan = stage_plan(rdd)
        assert len(plan[0].rdds) == 4

    def test_shuffle_starts_a_stage(self, ctx):
        rdd = ctx.parallelize([(i % 3, i) for i in range(12)], 3) \
                 .reduce_by_key(lambda a, b: a + b) \
                 .map_values(lambda v: v * 2)
        plan = stage_plan(rdd)
        assert len(plan) == 2
        result_stage = plan[-1]
        assert len(result_stage.parent_stages) == 1

    def test_join_has_two_parent_stages(self, ctx):
        left = ctx.parallelize([(1, "a")], 1).map(lambda kv: kv)
        right = ctx.parallelize([(1, "b")], 1).map(lambda kv: kv)
        joined = left.join(right)
        plan = stage_plan(joined)
        assert len(plan) == 3
        assert len(plan[-1].parent_stages) == 2

    def test_copartitioned_join_adds_no_stage(self, ctx):
        part = HashPartitioner(4)
        left = ctx.parallelize([(i, i) for i in range(8)], 4) \
                  .partition_by(part)
        right = ctx.parallelize([(i, -i) for i in range(8)], 4) \
                   .partition_by(part)
        joined = left.join(right, partitioner=part)
        # the two placement pipelines merge into the join's own stage:
        # lineage still shows their shuffles, but the join adds none
        assert count_stages(joined) \
            == count_stages(left) + count_stages(right) - 1
        result_stage = stage_plan(joined)[-1]
        names = {node.name for node in result_stage.rdds}
        assert "cogroup" in names and "partition_by" in names

    def test_stage_ids_are_execution_ordered(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 1) \
                 .reduce_by_key(lambda a, b: a + b) \
                 .map(lambda kv: (kv[1], kv[0])) \
                 .reduce_by_key(lambda a, b: a + b)
        plan = stage_plan(rdd)
        assert [stage.stage_id for stage in plan] == [0, 1, 2]
        # each stage depends only on earlier stages
        for stage in plan:
            for parent in stage.parent_stages:
                assert parent.stage_id < stage.stage_id


class TestExplainText:
    def test_mentions_ops_and_shuffles(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 1) \
                 .reduce_by_key(lambda a, b: a + b)
        text = explain(rdd)
        assert "Stage 0" in text
        assert "Stage 1" in text
        assert "shuffle from stage 0" in text
        assert "parallelize" in text

    def test_marks_cached(self, ctx):
        rdd = ctx.parallelize(range(4), 2).map(lambda x: x).cache()
        assert "[cached]" in explain(rdd)


class TestModeledSchedule:
    def test_mixed_cached_fused_plan(self, ctx):
        """One plan mixing both markers the explainer knows."""
        import numpy as np

        from repro.core import ArrayRDD

        rng = np.random.default_rng(3)
        arr = ArrayRDD.from_numpy(ctx, rng.random((32, 32)), (16, 16))
        fused = (arr * 2.0).map_values(lambda a: a + 1.0).cache()
        fused.materialize()                  # compiles fused[...] + caches
        deeper = fused.rdd.map(lambda kv: kv)

        text = explain(deeper)
        assert "[cached]" in text
        assert "fused[scalar_mul→map]" in text

    def test_matmul_local_join_has_no_input_shuffle(self, ctx):
        import numpy as np

        from repro.matrix import SpangleMatrix
        from repro.matrix.multiply import prepare_local

        a = np.random.default_rng(0).random((32, 32))
        ma = SpangleMatrix.from_numpy(ctx, a, (16, 16))
        mb = SpangleMatrix.from_numpy(ctx, a, (16, 16))

        def stage_of(plan, op_name):
            for stage in plan:
                if any(node.name == op_name for node in stage.rdds):
                    return stage
            raise AssertionError(f"no stage contains {op_name}")

        # built operands: the zip sits below the two placement shuffles
        default_plan = stage_plan(ma.multiply(mb).array.rdd)
        assert len(
            stage_of(default_plan, "zip_partitions").parent_stages) == 2

        # local join: the same zip, with no shuffle parents at all
        la, lb = prepare_local(ma, mb)
        local_plan = stage_plan(la.multiply(lb).array.rdd)
        zip_stage = stage_of(local_plan, "zip_partitions")
        assert all(
            "zip_partitions" not in
            {node.name for node in parent.rdds}
            for parent in zip_stage.parent_stages)
        # its only inputs are the one-off placement shuffles, already
        # merged into the same stage as the zip itself
        names = {node.name for node in zip_stage.rdds}
        assert "partition_by" in names


class TestFusedPipelines:
    def test_no_fusion_means_no_labels(self, ctx):
        rdd = ctx.parallelize(range(8), 2).map(lambda x: x + 1)
        assert fused_pipelines(rdd) == []

    def test_fused_chain_is_listed(self, ctx):
        import numpy as np

        from repro.core import ArrayRDD

        rng = np.random.default_rng(3)
        arr = ArrayRDD.from_numpy(ctx, rng.random((32, 32)), (16, 16))
        chain = ((arr * 2.0)
                 .filter(lambda a: a > 0.5)
                 .map_values(lambda a: a - 1.0))
        labels = fused_pipelines(chain.rdd)
        assert labels == ["fused[scalar_mul→filter→map]"]

    def test_pipelines_across_a_shuffle_list_in_stage_order(self, ctx):
        import numpy as np

        from repro.core import ArrayRDD

        rng = np.random.default_rng(3)
        arr = ArrayRDD.from_numpy(ctx, rng.random((32, 32)), (16, 16))
        first = (arr * 2.0).map_values(lambda a: a + 1.0)
        # aggregate_by shuffles: the upstream pipeline ends in its cell
        # partials sink, and the downstream side compiles its own fused
        # pipeline over the aggregated chunks
        regrouped = first.aggregate_by((0,), "sum")
        second = (regrouped * 3.0).map_values(lambda a: a - 1.0)
        labels = fused_pipelines(second.rdd)
        assert labels == ["fused[scalar_mul→map→cell_partials]",
                          "fused[scalar_mul→map]"]
        # a cached mid-point keeps both pipelines in the plan
        second.cache().materialize()
        assert "[cached]" in explain(second.rdd)
