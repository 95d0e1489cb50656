"""Fusion-equivalence tests for the ChunkPlan kernel layer.

The contract under test: a chain of chunk-local operators compiled into
one fused ``map_partitions`` pass must be *byte-identical* — same chunk
IDs, same modes, same payload bytes, same bitmask words — to the eager
per-chunk reference (``tests._reference.eager``), across dense, sparse,
and super-sparse inputs.
"""

import numpy as np
import pytest

from repro.bitmask import HierarchicalBitmask
from repro.core import ArrayRDD, ChunkMode, SpangleDataset
from repro.engine import ClusterContext
from repro.engine.explain import fused_pipelines, stage_plan
from tests._reference.eager import EagerArray


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


#: (label, expected mode, shape, chunk shape, density) — densities sit
#: on the three sides of the mode policy (0.5 and 1/256 thresholds)
MODE_CASES = [
    ("dense", ChunkMode.DENSE, (40, 40), (16, 16), 0.9),
    ("sparse", ChunkMode.SPARSE, (40, 40), (16, 16), 0.2),
    ("super_sparse", ChunkMode.SUPER_SPARSE, (64, 64), (32, 32), 0.002),
]


def make_array(ctx, shape, chunk, density, seed):
    rng = np.random.default_rng(seed)
    data = rng.random(shape)
    valid = rng.random(shape) < density
    return ArrayRDD.from_numpy(ctx, data, chunk, valid=valid)


def random_chain(meta, rng):
    """A random chain of 1-6 mixed chunk-local operators.

    Predicates are scale-free (they look at value digits, not
    magnitudes) so they keep a stable fraction of cells no matter how
    earlier scalar ops shifted the values.
    """
    ops = []
    for _ in range(rng.integers(1, 7)):
        kind = rng.choice(["filter", "map", "subarray", "scalar"])
        if kind == "filter":
            modulus = int(rng.integers(3, 6))
            ops.append(("filter", lambda a, m=modulus: a.filter(
                lambda xs: (np.floor(np.abs(xs) * 1e5) % m) > 0)))
        elif kind == "map":
            shift = float(rng.uniform(-1, 1))
            ops.append(("map", lambda a, s=shift: a.map_values(
                lambda xs: xs * 0.5 + s)))
        elif kind == "subarray":
            lo = [int(rng.integers(0, n // 2)) for n in meta.shape]
            hi = [int(rng.integers(n // 2, n)) for n in meta.shape]
            ops.append(("subarray", lambda a, lo=tuple(lo), hi=tuple(hi):
                        a.subarray(lo, hi)))
        else:
            scalar = float(rng.uniform(0.5, 2.0))
            dunder = rng.choice(["mul", "radd", "rsub", "div"])
            apply = {
                "mul": lambda a, s=scalar: a * s,
                "radd": lambda a, s=scalar: s + a,
                "rsub": lambda a, s=scalar: s - a,
                "div": lambda a, s=scalar: a / s,
            }[dunder]
            ops.append((f"scalar_{dunder}", apply))
    return ops


def assert_byte_identical(fused, eager):
    fused_chunks = dict(fused.rdd.collect())
    eager_chunks = eager.chunks
    assert fused_chunks.keys() == eager_chunks.keys()
    for chunk_id, got in fused_chunks.items():
        want = eager_chunks[chunk_id]
        assert got.mode is want.mode, chunk_id
        assert got.num_cells == want.num_cells
        assert type(got.mask) is type(want.mask)
        assert got.payload.dtype == want.payload.dtype
        assert got.payload.tobytes() == want.payload.tobytes(), chunk_id
        assert np.array_equal(got.flat_mask().words,
                              want.flat_mask().words), chunk_id


class TestRandomizedEquivalence:
    @pytest.mark.parametrize(
        "label,mode,shape,chunk,density", MODE_CASES,
        ids=[case[0] for case in MODE_CASES])
    @pytest.mark.parametrize("seed", range(8))
    def test_chain_matches_eager(self, ctx, label, mode, shape, chunk,
                                 density, seed):
        arr = make_array(ctx, shape, chunk, density, seed=seed)
        modes = {c.mode for _, c in arr.rdd.collect()}
        assert mode in modes  # the input really exercises this mode

        rng = np.random.default_rng(1000 + seed)
        ops = random_chain(arr.meta, rng)

        fused = arr
        eager = EagerArray.of(arr)
        for _name, apply in ops:
            fused = apply(fused)
            eager = apply(eager)

        fused_values, fused_valid = fused.collect_dense()
        eager_values, eager_valid = eager.collect_dense()
        assert np.array_equal(fused_valid, eager_valid)
        assert np.array_equal(fused_values, eager_values, equal_nan=True)
        assert fused.count_valid() == eager.count_valid()
        assert_byte_identical(fused, eager)

    def test_chain_records_no_more_tasks_than_eager(self, ctx):
        arr = make_array(ctx, (40, 40), (16, 16), 0.3, seed=3)
        arr.materialize()

        def chain(a):
            return (a.subarray((2, 2), (37, 37))
                     .filter(lambda xs: xs > 0.1)
                     .map_values(np.sqrt) * 2.0)

        before = ctx.metrics.snapshot()
        fused_count = chain(arr).count_valid()
        fused_delta = ctx.metrics.snapshot() - before

        assert fused_count == chain(EagerArray.of(arr)).count_valid()
        # the fused chain is one narrow pass: a single stage and one task
        # per partition — what a single eager operator would cost alone
        assert fused_delta.stages_run == 1
        assert fused_delta.tasks_launched == arr.rdd.num_partitions
        # four kernels ran in that pass, skipping intermediate chunks
        assert fused_delta.kernels_fused == 4
        assert fused_delta.fused_chunks_avoided > 0


class TestPlanMechanics:
    def test_fused_label_in_stage_plan(self, ctx):
        arr = make_array(ctx, (40, 40), (16, 16), 0.3, seed=0)
        out = (arr.filter(lambda xs: xs > 0.1)
                  .map_values(np.sqrt)
                  .subarray((0, 0), (31, 31)))
        assert out.rdd.name == "fused[filter→map→mask_and]"
        assert fused_pipelines(out.rdd) == ["fused[filter→map→mask_and]"]
        # one narrow stage, one fused hop over the base RDD
        plan_stages = stage_plan(out.rdd)
        assert len(plan_stages) == 1
        assert list(out.rdd.dependencies) == [arr.rdd]

    def test_plan_append_runs_no_job(self, ctx):
        arr = make_array(ctx, (40, 40), (16, 16), 0.3, seed=0)
        before = ctx.metrics.snapshot()
        out = arr.filter(lambda xs: xs > 0.5).map_values(np.sqrt) * 3.0
        delta = ctx.metrics.snapshot() - before
        assert delta.jobs_run == 0
        assert out.count_valid() >= 0  # the action actually runs

    def test_cache_collapses_plan(self, ctx):
        arr = make_array(ctx, (40, 40), (16, 16), 0.3, seed=0)
        out = arr.filter(lambda xs: xs > 0.2).map_values(np.sqrt)
        out.materialize()
        before = ctx.metrics.snapshot()
        count = out.count_valid()
        delta = ctx.metrics.snapshot() - before
        assert count > 0
        assert delta.cache_hits > 0   # the fused result was cached
        # operators after the barrier start a fresh plan on the
        # cached RDD instead of re-running the collapsed kernels
        deeper = out * 2.0
        assert deeper.rdd.name == "scalar_mul"

    def test_combine_keeps_partitioner(self, ctx):
        a = make_array(ctx, (40, 40), (16, 16), 0.5, seed=1)
        b = make_array(ctx, (40, 40), (16, 16), 0.5, seed=2)
        combined = a.combine(b, np.add, how="and")
        assert combined.rdd.partitioner is not None
        before = ctx.metrics.snapshot()
        combined.combine(a, np.add, how="and").count_valid()
        delta = ctx.metrics.snapshot() - before
        assert delta.shuffles_performed == 0

    def test_combine_drops_empty_chunks(self, ctx):
        a = make_array(ctx, (40, 40), (16, 16), 0.4, seed=1)
        diff = a.combine(a, np.subtract, how="or")  # all zeros
        survivors = diff.filter(lambda xs: xs != 0)
        assert survivors.num_chunks_materialized() == 0


class TestReflectedDunders:
    @pytest.mark.parametrize("expr", [
        lambda a: 2.0 / a,
        lambda a: a ** 2,
        lambda a: 2.0 ** a,
    ], ids=["rtruediv", "pow", "rpow"])
    def test_matches_numpy_and_eager(self, ctx, expr):
        arr = make_array(ctx, (40, 40), (16, 16), 0.4, seed=5)
        fused = expr(arr)
        assert fused.rdd.name.startswith("scalar_")
        assert_byte_identical(fused, expr(EagerArray.of(arr)))
        base_values, base_valid = arr.collect_dense(fill=1.0)
        got_values, got_valid = fused.collect_dense(fill=1.0)
        assert np.array_equal(base_valid, got_valid)
        want = expr(base_values[base_valid])
        assert np.allclose(got_values[got_valid], want)

    def test_pow_between_arrays_uses_combine(self, ctx):
        a = make_array(ctx, (40, 40), (16, 16), 0.5, seed=1)
        b = make_array(ctx, (40, 40), (16, 16), 0.5, seed=2)
        out = a ** b
        values, valid = out.collect_dense()
        av, avalid = a.collect_dense()
        bv, bvalid = b.collect_dense()
        assert np.array_equal(valid, avalid & bvalid)
        assert np.allclose(values[valid], av[valid] ** bv[valid])


class TestMaskAndDatasetFusion:
    def test_mask_apply_fuses_with_downstream_ops(self, ctx):
        rng = np.random.default_rng(9)
        shape, chunk = (40, 40), (16, 16)
        temp = ArrayRDD.from_numpy(
            ctx, rng.random(shape), chunk,
            valid=rng.random(shape) < 0.6)
        salt = ArrayRDD.from_numpy(
            ctx, rng.random(shape), chunk,
            valid=rng.random(shape) < 0.6)
        ds = SpangleDataset({"temp": temp, "salt": salt})
        restricted = ds.subarray((4, 4), (35, 35))

        fused = restricted.evaluate("salt").map_values(np.sqrt)
        assert fused.rdd.name == "fused[apply_mask→drop_empty→map]"
        masks = dict(restricted.mask.rdd.collect())
        eager = EagerArray.of(salt).mask_apply(masks).map_values(np.sqrt)
        assert_byte_identical(fused, eager)

    def test_dataset_lazy_eager_agree_under_fusion(self, ctx):
        shape, chunk = (40, 40), (16, 16)

        def build(use_mask_rdd):
            rng = np.random.default_rng(11)
            temp = ArrayRDD.from_numpy(
                ctx, rng.random(shape), chunk,
                valid=np.ones(shape, dtype=bool))
            salt = ArrayRDD.from_numpy(
                ctx, rng.random(shape), chunk,
                valid=rng.random(shape) < 0.7)
            return SpangleDataset({"temp": temp, "salt": salt},
                                  use_mask_rdd=use_mask_rdd)

        lazy = build(True)
        eager = build(False)
        lazy_q = lazy.filter("salt", lambda xs: xs > 0.3) \
                     .subarray((2, 2), (30, 30))
        eager_q = eager.filter("salt", lambda xs: xs > 0.3) \
                       .subarray((2, 2), (30, 30))
        for attr in ("temp", "salt"):
            lv, lm = lazy_q.evaluate(attr).collect_dense()
            ev, em = eager_q.evaluate(attr).collect_dense()
            assert np.array_equal(lm, em)
            assert np.array_equal(lv, ev, equal_nan=True)


class TestSuperSparseEncoding:
    def test_fused_chain_emits_hierarchical_masks(self, ctx):
        from repro.core.chunk import choose_mode

        arr = make_array(ctx, (64, 64), (32, 32), 0.002, seed=2)
        out = arr.map_values(lambda xs: xs + 1.0) \
                 .filter(lambda xs: xs > 0)
        chunks = dict(out.rdd.collect())
        assert chunks, "chain should keep some cells"
        # the fused encode re-applies the density policy per chunk...
        for chunk in chunks.values():
            assert chunk.mode is choose_mode(chunk.density)
        # ...and the thinnest chunks really get hierarchical masks
        super_sparse = [c for c in chunks.values()
                        if c.mode is ChunkMode.SUPER_SPARSE]
        assert super_sparse
        for chunk in super_sparse:
            assert isinstance(chunk.mask, HierarchicalBitmask)
