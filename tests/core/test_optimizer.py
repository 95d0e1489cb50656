"""Plan rewrites against the eager replay.

``ChunkPlan.then`` makes two exact rewrites as a kernel is appended:
adjacent scalar kernels fold into one, and a subarray goes in before
the trailing scalar kernels. The contract: every built plan is
*byte-identical* — same chunk IDs, same modes, same payload bytes, same
bitmask words — to replaying its operators as written, one chunk at a
time, with ``tests._reference.eager`` (which shares no ChunkPlan
kernel), across randomized operator chains, all three chunk modes and
all three execution backends. Rule assertions read ``explain()`` and
the ``optimizer_*`` counter deltas.
"""

import numpy as np
import pytest

from repro.core import ArrayRDD, ChunkMode
from repro.engine import ClusterContext
from repro.matrix import SpangleMatrix
from tests._reference.eager import EagerArray


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


def make_array(ctx, shape=(40, 40), chunk=(10, 10), density=0.4, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.random(shape)
    valid = rng.random(shape) < density
    return ArrayRDD.from_numpy(ctx, data, chunk, valid=valid)


def replay(build, *arrays):
    """``build`` over the arrays, and over their eager replays."""
    return build(*arrays), build(*map(EagerArray.of, arrays))


def assert_byte_identical(got_arr, eager):
    got_chunks = dict(got_arr.rdd.collect())
    want_chunks = eager.chunks
    assert got_chunks.keys() == want_chunks.keys()
    for chunk_id, got in got_chunks.items():
        want = want_chunks[chunk_id]
        assert got.mode is want.mode, chunk_id
        assert got.num_cells == want.num_cells
        assert got.payload.dtype == want.payload.dtype
        assert got.payload.tobytes() == want.payload.tobytes(), chunk_id
        assert np.array_equal(got.flat_mask().words,
                              want.flat_mask().words), chunk_id


def random_chain(meta, rng):
    """2-8 random ops mixing chunk-local work, shuffles, and subarrays."""
    ops = []
    for _ in range(rng.integers(2, 9)):
        kind = rng.choice(
            ["filter", "map", "subarray", "scalar", "shuffle", "repack"])
        if kind == "filter":
            modulus = int(rng.integers(3, 6))
            ops.append(lambda a, m=modulus: a.filter(
                lambda xs: (np.floor(np.abs(xs) * 1e5) % m) > 0))
        elif kind == "map":
            shift = float(rng.uniform(-1, 1))
            ops.append(lambda a, s=shift: a.map_values(
                lambda xs: xs * 0.5 + s))
        elif kind == "subarray":
            lo = [int(rng.integers(0, n // 2)) for n in meta.shape]
            hi = [int(rng.integers(n // 2, n)) for n in meta.shape]
            ops.append(lambda a, lo=tuple(lo), hi=tuple(hi):
                       a.subarray(lo, hi))
        elif kind == "scalar":
            scalar = float(rng.uniform(0.5, 2.0))
            apply = rng.choice([
                lambda a, s=scalar: a * s,
                lambda a, s=scalar: s + a,
                lambda a, s=scalar: s - a,
                lambda a, s=scalar: a / s,
            ])
            ops.append(apply)
        elif kind == "shuffle":
            parts = int(rng.integers(2, 7))
            ops.append(lambda a, p=parts: a.repartition(p))
        else:
            ops.append(lambda a: a.repack())
    return ops


def apply_chain(arr, ops):
    for op in ops:
        arr = op(arr)
    return arr


class TestRandomizedChains:
    @pytest.mark.parametrize("seed", range(8))
    def test_optimized_matches_as_written(self, ctx, seed):
        arr = make_array(ctx, seed=seed)
        ops = random_chain(arr.meta, np.random.default_rng(1000 + seed))
        got, want = replay(lambda a: apply_chain(a, ops), arr)
        assert_byte_identical(got, want)

    @pytest.mark.parametrize("kwargs", [
        pytest.param({}, id="serial"),
        pytest.param({"use_threads": True}, id="thread"),
        pytest.param({"backend": "process"}, id="process"),
    ])
    def test_byte_identity_across_backends(self, kwargs):
        with ClusterContext(num_executors=2, **kwargs) as ctx:
            arr = make_array(ctx, shape=(24, 24), chunk=(8, 8), seed=3)
            ops = random_chain(arr.meta, np.random.default_rng(42))
            got, want = replay(lambda a: apply_chain(a, ops), arr)
            assert_byte_identical(got, want)

    @pytest.mark.parametrize("density", [0.9, 0.2, 0.002])
    def test_densities(self, ctx, density):
        arr = make_array(ctx, shape=(64, 64), chunk=(32, 32),
                         density=density, seed=7)
        got, want = replay(
            lambda a: (a * 2.0 + 1.0).repartition(3)
            .subarray((5, 5), (50, 50)), arr)
        assert_byte_identical(got, want)


class TestSubarrayAfterShuffle:
    def test_pushdown_is_byte_identical(self, ctx):
        arr = make_array(ctx, shape=(48, 48), chunk=(12, 12), seed=5)
        got, want = replay(
            lambda a: a.repartition(8).subarray((2, 2), (13, 13)), arr)
        assert_byte_identical(got, want)


class TestMaskOnlyConsumers:
    def test_count_valid_matches_as_written(self, ctx):
        arr = make_array(ctx, shape=(40, 40), chunk=(10, 10), seed=11)
        got, want = replay(
            lambda a: (a * 3.0).map_values(lambda xs: xs + 1)
            .subarray((3, 3), (18, 18)), arr)
        assert got.count_valid() == want.count_valid()

    def test_nested_subarrays(self, ctx):
        arr = make_array(ctx, seed=17)
        got, want = replay(
            lambda a: a.subarray((0, 0), (25, 25))
            .subarray((4, 4), (30, 30)), arr)
        assert got.count_valid() == want.count_valid()
        assert_byte_identical(got, want)


class TestElementwisePushdown:
    def test_subarray_into_both_operands(self, ctx):
        a = make_array(ctx, seed=21)
        b = make_array(ctx, seed=22)
        got, want = replay(
            lambda x, y: x.combine(y, np.add, how="or", fill=0.0)
            .subarray((2, 2), (17, 17)), a, b)
        assert_byte_identical(got, want)

    def test_and_join(self, ctx):
        a = make_array(ctx, seed=23)
        b = make_array(ctx, seed=24)
        got, want = replay(
            lambda x, y: x.combine(y, np.multiply, how="and")
            .subarray((5, 5), (30, 30)), a, b)
        assert_byte_identical(got, want)


class TestMatmulPushdown:
    def make_matrices(self, ctx):
        rng = np.random.default_rng(31)
        a = rng.random((24, 16)) * (rng.random((24, 16)) < 0.5)
        b = rng.random((16, 24)) * (rng.random((16, 24)) < 0.5)
        ma = SpangleMatrix.from_numpy(ctx, a, (8, 8))
        mb = SpangleMatrix.from_numpy(ctx, b, (8, 8))
        return ma, mb

    def test_restricted_product_is_byte_identical(self, ctx):
        ma, mb = self.make_matrices(ctx)
        got, want = replay(lambda p: p.subarray((0, 0), (7, 7)),
                           ma.multiply(mb).array)
        assert_byte_identical(got, want)

    def test_unrestricted_product_unchanged(self, ctx):
        ma, mb = self.make_matrices(ctx)
        got = ma.multiply(mb)
        # a second, separately built product replays to the same bytes
        assert_byte_identical(got.array,
                              EagerArray.of(ma.multiply(mb).array))
        assert np.allclose(got.to_numpy(),
                           ma.to_numpy() @ mb.to_numpy())


class TestEscapeHatchAndExplain:
    def test_wide_operator_records_operand_rewrites(self, ctx):
        arr = make_array(ctx, seed=41)
        before = ctx.metrics.snapshot()
        chain = (arr * 2.0 + 1.0).repartition(4)
        # the repartition compiled its operand's folded plan, and
        # recorded the fold then; reading the result records nothing new
        assert (ctx.metrics.snapshot() - before).optimizer_rules_fired == 1
        assert "fold[mul+add]" in chain.explain()
        want = (EagerArray.of(arr) * 2.0 + 1.0).repartition(4)
        assert_byte_identical(chain, want)
        assert chain.num_chunks_materialized() == len(want.chunks)
        delta = ctx.metrics.snapshot() - before
        assert delta.optimizer_rules_fired == 1

    def test_explain_sections(self, ctx):
        arr = make_array(ctx, seed=43)
        chain = (arr * 2.0 + 1.0).subarray((0, 0), (19, 19))
        text = chain.explain()
        assert "Plan: parallelize → mask_and → fold[mul+add]" in text
        assert "Rewrites: 2 fired (fold_scalars, " \
            "subarray_before_scalar)" in text
        assert "Physical plan:" in text
        assert "fused[mask_and→fold[mul+add]]" in text

    def test_explain_does_not_compile(self, ctx):
        arr = make_array(ctx, seed=47)
        folded = arr * 2.0 + 1.0
        before = ctx.metrics.snapshot()
        assert "fold_scalars" in folded.explain()
        delta = ctx.metrics.snapshot() - before
        assert folded._compiled is None
        assert delta.optimizer_rules_fired == 0
        assert delta.kernels_fused == 0
        # a wide operator is what compiles the operand
        folded.repartition(3)
        assert folded._compiled is not None

    def test_mask_rdd_explain(self, ctx):
        from repro.core import MaskRDD

        arr = make_array(ctx, seed=53)
        mask = MaskRDD.from_array_rdd(arr).subarray((0, 0), (19, 19))
        text = mask.explain()
        assert "subarray[(0, 0)..(19, 19)]" in text
        assert "Physical plan:" in text

    def test_no_beneficial_rewrite_leaves_plan_alone(self, ctx):
        arr = make_array(ctx, seed=59)
        chain = arr.map_values(lambda xs: xs * 2)
        text = chain.explain()
        assert "Rewrites: 0 fired (none)" in text


class TestCalibratedBox:
    """The ``((a * gain) + offset).subarray(box).sum()`` chain: the two
    scalar kernels fold, then the box goes in before the fold."""

    @pytest.mark.parametrize("mode", list(ChunkMode))
    def test_fold_then_hoist_matches_numpy(self, ctx, mode):
        rng = np.random.default_rng(71)
        data = rng.random((40, 40))
        valid = rng.random((40, 40)) < 0.4
        arr = ArrayRDD.from_numpy(ctx, data, (10, 10), valid=valid,
                                  mode=mode)
        chain, want = replay(
            lambda a: ((a * 1.5) + 0.25).subarray((10, 10), (29, 29)), arr)
        text = chain.explain()
        assert "2 fired (fold_scalars, subarray_before_scalar);" in text
        before = ctx.metrics.snapshot()
        got = chain.sum()
        delta = ctx.metrics.snapshot() - before
        assert delta.optimizer_rules_fired == 2
        assert delta.optimizer_chunks_pruned > 0
        inside = valid[10:30, 10:30]
        expected = (data[10:30, 10:30] * 1.5 + 0.25)[inside].sum()
        assert got == pytest.approx(expected, rel=1e-12)
        assert_byte_identical(chain, want)

    @pytest.mark.parametrize("box,density", [
        pytest.param(((0, 0), (39, 39)), 0.4, id="whole_array_box"),
        pytest.param(((10, 10), (29, 29)), 0.0, id="no_valid_cells"),
    ])
    def test_rules_apply_where_nothing_is_pruned(self, ctx, box,
                                                  density):
        # exact rewrites apply wherever they match, even when the box
        # prunes no chunk or there is no chunk to prune
        arr = make_array(ctx, density=density, seed=73)
        chain, want = replay(
            lambda a: ((a * 1.5) + 0.25).subarray(*box), arr)
        assert "(fold_scalars, subarray_before_scalar)" in chain.explain()
        assert_byte_identical(chain, want)

    def test_hoist_then_fold_across_the_box(self, ctx):
        # the box goes in before the multiply, and the add appended
        # after the box then folds into that same scalar kernel
        arr = make_array(ctx, seed=79)
        chain, want = replay(
            lambda a: (a * 2.0).subarray((10, 10), (29, 29)) + 1.0, arr)
        assert chain.rdd.name == "fused[mask_and→fold[mul+add]]"
        assert "(subarray_before_scalar, fold_scalars)" in chain.explain()
        assert_byte_identical(chain, want)


class TestScalarFolding:
    def test_long_scalar_chain_folds_and_matches(self, ctx):
        arr = make_array(ctx, seed=61)
        got, want = replay(
            lambda a: ((a * 2.0 + 1.0) / 3.0 - 0.5) * 1.5, arr)
        assert_byte_identical(got, want)
        assert "fold_scalars" in got.explain()

    def test_fold_runs_single_kernel(self, ctx):
        arr = make_array(ctx, seed=67)
        text = (arr * 2.0 + 1.0 - 3.0).explain()
        assert "fold[mul+add+sub]" in text
