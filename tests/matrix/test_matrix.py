"""Tests for SpangleMatrix: kernels, multiplication, local join, transpose."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ClusterContext, HashPartitioner
from repro.errors import ArrayError, ShapeMismatchError
from repro.matrix import SpangleMatrix, SpangleVector
from repro.matrix.multiply import prepare_local
from tests._reference import matvec as reference


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


def random_sparse(shape, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random(shape)
    dense[rng.random(shape) >= density] = 0.0
    return dense


class TestConstruction:
    def test_from_numpy_roundtrip(self, ctx):
        dense = random_sparse((30, 20), 0.3, seed=0)
        m = SpangleMatrix.from_numpy(ctx, dense, (8, 8))
        assert np.allclose(m.to_numpy(), dense)
        assert m.nnz() == int((dense != 0).sum())

    def test_zeros_invalid_by_default(self, ctx):
        dense = np.zeros((10, 10))
        dense[0, 0] = 1.0
        m = SpangleMatrix.from_numpy(ctx, dense, (5, 5))
        assert m.nnz() == 1
        assert m.array.num_chunks_materialized() == 1

    def test_dense_mode_keeps_zeros(self, ctx):
        dense = np.zeros((4, 4))
        m = SpangleMatrix.from_numpy(ctx, dense, (2, 2),
                                     sparse_zeros=False)
        assert m.nnz() == 16

    def test_from_coo(self, ctx):
        dense = random_sparse((25, 17), 0.2, seed=1)
        r, c = np.nonzero(dense)
        m = SpangleMatrix.from_coo(ctx, r, c, dense[r, c], dense.shape,
                                   (8, 8))
        assert np.allclose(m.to_numpy(), dense)

    def test_from_coo_length_mismatch(self, ctx):
        with pytest.raises(ShapeMismatchError):
            SpangleMatrix.from_coo(ctx, [0], [0, 1], [1.0], (2, 2),
                                   (2, 2))

    def test_requires_2d(self, ctx):
        from repro.core import ArrayRDD

        arr = ArrayRDD.from_numpy(ctx, np.ones((2, 2, 2)), (1, 1, 1))
        with pytest.raises(ShapeMismatchError):
            SpangleMatrix(arr)

    def test_block_id_mapping(self, ctx):
        m = SpangleMatrix.from_numpy(ctx, np.ones((20, 30)), (10, 10))
        assert m.grid_rows == 2 and m.grid_cols == 3
        for rb in range(2):
            for cb in range(3):
                cid = m.chunk_id_of(rb, cb)
                assert m.row_block_of(cid) == rb
                assert m.col_block_of(cid) == cb


class TestMatVec:
    def test_dot_vector(self, ctx):
        dense = random_sparse((40, 33), 0.25, seed=2)
        m = SpangleMatrix.from_numpy(ctx, dense, (16, 16))
        v = SpangleVector(np.arange(33, dtype=np.float64))
        assert np.allclose(m.dot_vector(v).data, dense @ v.data)

    def test_vector_dot(self, ctx):
        dense = random_sparse((40, 33), 0.25, seed=3)
        m = SpangleMatrix.from_numpy(ctx, dense, (16, 16))
        v = SpangleVector(np.arange(40, dtype=np.float64), "row")
        assert np.allclose(m.vector_dot(v).data, v.data @ dense)

    def test_vt_m_via_opt2_transpose(self, ctx):
        """v.T into vector_dot: the opt2 path, no physical transpose."""
        dense = random_sparse((20, 15), 0.3, seed=4)
        m = SpangleMatrix.from_numpy(ctx, dense, (8, 8))
        col = SpangleVector(np.arange(20, dtype=np.float64), "col")
        assert np.allclose(m.vector_dot(col.T).data, col.data @ dense)

    def test_orientation_enforced(self, ctx):
        m = SpangleMatrix.from_numpy(ctx, np.ones((4, 4)), (2, 2))
        with pytest.raises(ShapeMismatchError):
            m.dot_vector(SpangleVector(np.ones(4), "row"))
        with pytest.raises(ShapeMismatchError):
            m.vector_dot(SpangleVector(np.ones(4), "col"))

    def test_size_enforced(self, ctx):
        m = SpangleMatrix.from_numpy(ctx, np.ones((4, 6)), (2, 2))
        with pytest.raises(ShapeMismatchError):
            m.dot_vector(SpangleVector(np.ones(4)))

    def test_hyper_sparse_kernel_path(self, ctx):
        dense = np.zeros((300, 300))
        dense[5, 7] = 2.0
        dense[250, 100] = 3.0
        m = SpangleMatrix.from_numpy(ctx, dense, (64, 64))
        v = SpangleVector(np.ones(300))
        assert np.allclose(m.dot_vector(v).data, dense @ v.data)

    @pytest.mark.parametrize("backend", [{}, {"backend": "process"}],
                             ids=["serial", "process"])
    @pytest.mark.parametrize("density", [0.02, 0.3, 0.9])
    def test_both_orientations_bit_identical_to_reference(self, backend,
                                                          density):
        """One kernel serves ``M × v`` and ``vᵀ × M``: sparse (gather/
        scatter) and dense (BLAS) blocks, ragged edges, every bit equal
        to the two-body reference; its tasks carry no driver state, so
        they run on worker processes too."""
        dense = random_sparse((70, 45), density, seed=9)
        dense[dense != 0] -= 0.5
        rng = np.random.default_rng(10)
        col, row = rng.normal(size=45), rng.normal(size=70)
        with ClusterContext(num_executors=2, default_parallelism=3,
                            **backend) as ctx:
            m = SpangleMatrix.from_numpy(ctx, dense, (16, 12))
            assert np.array_equal(
                m.dot_vector(SpangleVector(col, "col")).data,
                reference.matvec(m, col, "col"))
            assert np.array_equal(
                m.vector_dot(SpangleVector(row, "row")).data,
                reference.matvec(m, row, "row"))


class TestMultiply:
    @pytest.mark.parametrize("prepared", [False, True])
    def test_matmul_matches_numpy(self, ctx, prepared):
        a = random_sparse((37, 29), 0.3, seed=5)
        b = random_sparse((29, 23), 0.3, seed=6)
        ma = SpangleMatrix.from_numpy(ctx, a, (8, 8))
        mb = SpangleMatrix.from_numpy(ctx, b, (8, 8))
        if prepared:
            ma, mb = prepare_local(ma, mb)
        assert np.allclose(ma.multiply(mb).to_numpy(), a @ b)

    def test_dimension_checks(self, ctx):
        ma = SpangleMatrix.from_numpy(ctx, np.ones((4, 6)), (2, 2))
        mb = SpangleMatrix.from_numpy(ctx, np.ones((4, 6)), (2, 2))
        with pytest.raises(ShapeMismatchError):
            ma.multiply(mb)
        mc = SpangleMatrix.from_numpy(ctx, np.ones((6, 4)), (3, 4))
        with pytest.raises(ShapeMismatchError):
            ma.multiply(mc)  # contraction blocks disagree (2 vs 3)

    def test_local_join_skips_input_shuffle(self, ctx):
        a = random_sparse((64, 64), 0.2, seed=7)
        b = random_sparse((64, 64), 0.2, seed=8)
        ma = SpangleMatrix.from_numpy(ctx, a, (16, 16))
        mb = SpangleMatrix.from_numpy(ctx, b, (16, 16))
        la, lb = prepare_local(ma, mb)
        la.materialize()
        lb.materialize()
        before = ctx.metrics.snapshot()
        la.multiply(lb).array.rdd.count()
        local_delta = ctx.metrics.snapshot() - before

        ma.materialize()
        mb.materialize()
        before = ctx.metrics.snapshot()
        ma.multiply(mb).array.rdd.count()
        default_delta = ctx.metrics.snapshot() - before

        assert local_delta.shuffles_performed \
            < default_delta.shuffles_performed
        assert local_delta.shuffle_bytes < default_delta.shuffle_bytes

    def test_prepared_operands_in_either_role(self, ctx):
        """A placement names its role: a prepared operand used in the
        other role (or both) is placed again, never zipped as is."""
        a = np.random.default_rng(14).integers(-3, 4, (32, 32)) * 1.0
        b = np.random.default_rng(15).integers(-3, 4, (32, 32)) * 1.0
        la, lb = prepare_local(SpangleMatrix.from_numpy(ctx, a, (8, 8)),
                               SpangleMatrix.from_numpy(ctx, b, (8, 8)))
        la.materialize()
        lb.materialize()
        for left, right, x, y in ((la, lb, a, b), (lb, la, b, a),
                                  (la, la, a, a), (lb, lb, b, b)):
            np.testing.assert_array_equal(
                left.multiply(right).to_numpy(), x @ y)
        before = ctx.metrics.snapshot()
        la.multiply(lb).array.rdd.count()
        assert (ctx.metrics.snapshot() - before).shuffles_performed == 1

    @pytest.mark.parametrize("left_parts,right_parts", [(4, 4), (5, 2),
                                                        (2, 5)])
    def test_shuffle_count_contract(self, ctx, left_parts, right_parts):
        """Two placements and a gather for built operands, the gather
        alone for a prepared pair, a group and a gather for ``gram``;
        the gather's hash partitioner is the product's."""
        a = random_sparse((48, 40), 0.3, seed=16)
        b = random_sparse((40, 32), 0.3, seed=17)
        ma = SpangleMatrix.from_numpy(ctx, a, (8, 8),
                                      num_partitions=left_parts)
        mb = SpangleMatrix.from_numpy(ctx, b, (8, 8),
                                      num_partitions=right_parts)
        la, lb = prepare_local(ma, mb)
        for m in (ma, mb, la, lb):
            m.materialize()

        def shuffles(product):
            before = ctx.metrics.snapshot()
            product.array.rdd.count()
            return (ctx.metrics.snapshot() - before).shuffles_performed

        product = ma.multiply(mb)
        parts = max(left_parts, right_parts)
        assert product.array.rdd.partitioner == HashPartitioner(parts)
        assert shuffles(product) == 3
        assert shuffles(la.multiply(lb)) == 1
        assert la.multiply(lb).array.rdd.num_partitions == left_parts
        assert shuffles(ma.gram()) == 2
        assert ma.gram().array.rdd.num_partitions == left_parts

    def test_bitmask_gating_skips_empty_pairs(self, ctx):
        # block-diagonal inputs: off-diagonal block pairs must never
        # produce partial products
        a = np.zeros((32, 32))
        a[:16, :16] = 1.0
        b = np.zeros((32, 32))
        b[16:, 16:] = 1.0
        ma = SpangleMatrix.from_numpy(ctx, a, (16, 16))
        mb = SpangleMatrix.from_numpy(ctx, b, (16, 16))
        result = ma.multiply(mb)
        assert np.allclose(result.to_numpy(), a @ b)
        assert result.array.num_chunks_materialized() == 0  # all zero

    def test_sparse_times_sparse(self, ctx):
        a = random_sparse((100, 80), 0.01, seed=9)
        b = random_sparse((80, 60), 0.01, seed=10)
        ma = SpangleMatrix.from_numpy(ctx, a, (32, 32))
        mb = SpangleMatrix.from_numpy(ctx, b, (32, 32))
        assert np.allclose(ma.multiply(mb).to_numpy(), a @ b)

    def test_gram(self, ctx):
        a = random_sparse((50, 30), 0.2, seed=11)
        m = SpangleMatrix.from_numpy(ctx, a, (16, 16))
        assert np.allclose(m.gram().to_numpy(), a.T @ a)

    def test_offset_encoded_operand(self, ctx):
        a = random_sparse((64, 64), 0.002, seed=12)
        b = random_sparse((64, 64), 0.3, seed=13)
        ma = SpangleMatrix.from_numpy(ctx, a, (32, 32)).optimize_static()
        mb = SpangleMatrix.from_numpy(ctx, b, (32, 32))
        assert np.allclose(ma.multiply(mb).to_numpy(), a @ b)


class TestTransposeAndElementwise:
    def test_transpose(self, ctx):
        a = random_sparse((30, 18), 0.3, seed=14)
        m = SpangleMatrix.from_numpy(ctx, a, (8, 8))
        t = m.transpose()
        assert t.shape == (18, 30)
        assert np.allclose(t.to_numpy(), a.T)

    def test_double_transpose(self, ctx):
        a = random_sparse((20, 12), 0.4, seed=15)
        m = SpangleMatrix.from_numpy(ctx, a, (8, 8))
        assert np.allclose(m.transpose().transpose().to_numpy(), a)

    def test_transpose_keeps_valid_zeros(self, ctx):
        """With ``sparse_zeros=False`` a stored zero is a valid cell and
        stays one through the transpose."""
        a = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 5.0]])
        m = SpangleMatrix.from_numpy(ctx, a, (2, 2), sparse_zeros=False)
        t = m.transpose()
        assert m.nnz() == t.nnz() == 6
        values, valid = t.array.collect_dense()
        assert valid.all() and np.array_equal(values, a.T)
        back = t.transpose()
        assert back.meta == m.meta
        assert pickle.dumps(sorted(back.array.rdd.collect())) \
            == pickle.dumps(sorted(m.array.rdd.collect()))

    def test_add_subtract_hadamard(self, ctx):
        a = random_sparse((24, 24), 0.4, seed=16)
        b = random_sparse((24, 24), 0.4, seed=17)
        ma = SpangleMatrix.from_numpy(ctx, a, (8, 8))
        mb = SpangleMatrix.from_numpy(ctx, b, (8, 8))
        assert np.allclose(ma.add(mb).to_numpy(), a + b)
        assert np.allclose(ma.subtract(mb).to_numpy(), a - b)
        assert np.allclose(ma.hadamard(mb).to_numpy(), a * b)

    def test_subtract_self_is_empty(self, ctx):
        a = random_sparse((16, 16), 0.5, seed=18)
        m = SpangleMatrix.from_numpy(ctx, a, (8, 8))
        diff = m.subtract(m)
        assert diff.nnz() == 0

    def test_elementwise_shape_checks(self, ctx):
        ma = SpangleMatrix.from_numpy(ctx, np.ones((4, 4)), (2, 2))
        mb = SpangleMatrix.from_numpy(ctx, np.ones((4, 6)), (2, 2))
        with pytest.raises(ShapeMismatchError):
            ma.add(mb)
        mc = SpangleMatrix.from_numpy(ctx, np.ones((4, 4)), (4, 4))
        with pytest.raises(ShapeMismatchError):
            ma.add(mc)

    def test_scale(self, ctx):
        a = random_sparse((10, 10), 0.5, seed=19)
        m = SpangleMatrix.from_numpy(ctx, a, (5, 5))
        assert np.allclose(m.scale(2.5).to_numpy(), a * 2.5)
        with pytest.raises(ArrayError):
            m.scale(0)

    def test_sparse_memory_smaller_than_dense(self, ctx):
        sparse = random_sparse((256, 256), 0.01, seed=20)
        ms = SpangleMatrix.from_numpy(ctx, sparse, (64, 64))
        md = SpangleMatrix.from_numpy(ctx, np.ones((256, 256)), (64, 64))
        assert ms.memory_bytes() < md.memory_bytes() / 5


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(4, 24),
    k=st.integers(4, 24),
    m=st.integers(4, 24),
    density=st.floats(0.05, 0.9),
    seed=st.integers(0, 1000),
)
def test_matmul_property(n, k, m, density, seed):
    ctx = ClusterContext(num_executors=2, default_parallelism=2)
    a = random_sparse((n, k), density, seed)
    b = random_sparse((k, m), density, seed + 1)
    ma = SpangleMatrix.from_numpy(ctx, a, (5, 5))
    mb = SpangleMatrix.from_numpy(ctx, b, (5, 5))
    assert np.allclose(ma.multiply(mb).to_numpy(), a @ b)
