"""Tests for the CSR sparse kernels in matrix multiply.

Three layers under test: the block kernels (``_csr_join`` must be
bit-identical to the per-k COO join reference in
``tests._reference.coo``; the one-sided scatter kernel must agree with
dense BLAS; every kernel yields the same bytes for a block pair), the
per-pair density gates of ``_BlockKernel``, and end to end (the product
stays byte-identical across backends and join strategies).
"""

import numpy as np
import pytest

import repro.matrix.multiply as multiply_mod
from repro.core.chunk import Chunk
from repro.engine import ClusterContext
from repro.matrix import SpangleMatrix
from repro.matrix.multiply import (
    SCATTER_KERNEL_THRESHOLD,
    SPARSE_KERNEL_THRESHOLD,
    _BlockKernel,
    _COOPartial,
    _csr_join,
    _partial_to_dense,
    _scatter_partial,
    _sparse_partial,
)
from tests._reference.coo import _coo_join


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


def sparse_ints(shape, density, seed, lo=-4, hi=5):
    """Integer-valued sparse blocks: float64 arithmetic on small ints
    is exact, so every kernel ordering must produce identical bytes."""
    rng = np.random.default_rng(seed)
    dense = rng.integers(lo, hi, size=shape).astype(np.float64)
    dense[rng.random(shape) >= density] = 0.0
    return dense


def coo_triples(dense, seed):
    """(rows, ks, vals) for a dense block, in Fortran offset order —
    the order chunk.indices() yields them in."""
    rows, cols = np.nonzero(dense.T)  # transpose → column-major walk
    return (cols.astype(np.int64), rows.astype(np.int64),
            dense[cols, rows])


# ----------------------------------------------------------------------
# join kernels
# ----------------------------------------------------------------------

class TestCsrJoin:
    def test_bit_identical_to_coo_join(self):
        a = sparse_ints((17, 23), 0.15, seed=3)
        b = sparse_ints((23, 11), 0.2, seed=4)
        a_rows, a_ks, a_vals = coo_triples(a, 3)
        b_ks, b_cols, b_vals = coo_triples(b, 4)
        shape = (17, 11)
        coo = _coo_join(a_rows, a_ks, a_vals, b_ks, b_cols, b_vals,
                        shape)
        csr = _csr_join(a_rows, a_ks, a_vals, b_ks, b_cols, b_vals,
                        shape)
        assert coo is not None and csr is not None
        np.testing.assert_array_equal(coo.rows, csr.rows)
        np.testing.assert_array_equal(coo.cols, csr.cols)
        # bit-identical values, not merely allclose
        assert coo.vals.tobytes() == csr.vals.tobytes()

    def test_no_matching_k_returns_none(self):
        a = np.zeros((6, 8))
        b = np.zeros((8, 5))
        a[2, 0] = 3.0   # only k=0 on the left
        b[7, 1] = 2.0   # only k=7 on the right
        args = coo_triples(a, 0) + coo_triples(b, 0) + ((6, 5),)
        assert _coo_join(*args) is None
        assert _csr_join(*args) is None

    def test_duplicate_k_expansion(self):
        # several entries sharing one k on both sides → full cross
        # product per k, in the COO path's repeat/tile order
        a = np.zeros((4, 3))
        a[0, 1] = 2.0
        a[3, 1] = 5.0
        b = np.zeros((3, 4))
        b[1, 0] = 7.0
        b[1, 3] = -1.0
        args = coo_triples(a, 0) + coo_triples(b, 0) + ((4, 4),)
        coo = _coo_join(*args)
        csr = _csr_join(*args)
        np.testing.assert_array_equal(coo.rows, csr.rows)
        np.testing.assert_array_equal(coo.cols, csr.cols)
        np.testing.assert_array_equal(coo.vals, csr.vals)
        dense = np.zeros((4, 4))
        np.add.at(dense, (csr.rows, csr.cols), csr.vals)
        np.testing.assert_array_equal(dense, a @ b)


class TestScatterKernel:
    def _chunk(self, ctx, dense):
        m = SpangleMatrix.from_numpy(ctx, dense, dense.shape)
        (_cid, chunk), = m.array.rdd.collect()
        return chunk

    def test_sparse_left_dense_right(self, ctx):
        a = sparse_ints((12, 9), 0.1, seed=5)
        b = sparse_ints((9, 7), 0.9, seed=6)
        out = _scatter_partial(self._chunk(ctx, a),
                               self._chunk(ctx, b),
                               a.shape, b.shape, sparse_on_left=True)
        np.testing.assert_array_equal(out, a @ b)

    def test_dense_left_sparse_right(self, ctx):
        a = sparse_ints((12, 9), 0.9, seed=7)
        b = sparse_ints((9, 7), 0.1, seed=8)
        out = _scatter_partial(self._chunk(ctx, a),
                               self._chunk(ctx, b),
                               a.shape, b.shape, sparse_on_left=False)
        np.testing.assert_array_equal(out, a @ b)

    def test_all_zero_product_returns_none(self, ctx):
        a = np.zeros((4, 4))
        a[0, 0] = 1.0
        b = np.zeros((4, 4))
        b[3, 3] = 1.0  # a's k=0 never meets b's k=3
        assert _scatter_partial(self._chunk(ctx, a),
                                self._chunk(ctx, b),
                                a.shape, b.shape,
                                sparse_on_left=True) is None


# ----------------------------------------------------------------------
# density gates
# ----------------------------------------------------------------------

class TestSparseConfig:
    def test_repro_level_exports(self):
        # the gates are module constants: no package-level knob moves
        # them, so every backend picks the same kernel per pair
        import repro
        import repro.matrix

        assert (SPARSE_KERNEL_THRESHOLD, SCATTER_KERNEL_THRESHOLD) == \
            (0.02, 0.1)
        for name in ("sparse_threshold", "set_sparse_threshold",
                     "set_sparse_kernel", "sparse_config"):
            assert not hasattr(repro, name)
            assert not hasattr(repro.matrix, name)


# ----------------------------------------------------------------------
# end-to-end: kernels and backends agree byte-for-byte
# ----------------------------------------------------------------------

class TestEndToEnd:
    def _product(self, ctx, seed=11):
        a = sparse_ints((40, 30), 0.05, seed=seed)
        b = sparse_ints((30, 20), 0.05, seed=seed + 1)
        ma = SpangleMatrix.from_numpy(ctx, a, (10, 10))
        mb = SpangleMatrix.from_numpy(ctx, b, (10, 10))
        return a @ b, ma.multiply(mb).to_numpy()

    def test_csr_matches_numpy_exactly(self, ctx):
        expected, got = self._product(ctx)
        np.testing.assert_array_equal(got, expected)

    def test_kernels_byte_identical(self, ctx):
        """Every block pair yields the same partial bytes through each
        kernel called directly — the sparse join, the one-sided scatter
        from either side, dense BLAS — through the gated _BlockKernel,
        and through the COO reference."""
        a = sparse_ints((40, 30), 0.05, seed=11)
        b = sparse_ints((30, 20), 0.4, seed=12)
        shape = (10, 10)
        gated = _BlockKernel(shape, shape)
        left = dict(SpangleMatrix.from_numpy(ctx, a, shape)
                    .array.rdd.collect())
        right = dict(SpangleMatrix.from_numpy(ctx, b, shape)
                     .array.rdd.collect())
        pairs = 0
        for lcid, lchunk in left.items():
            for rcid, rchunk in right.items():
                if lcid // 4 != rcid % 3:     # contraction blocks differ
                    continue
                a_off, b_off = lchunk.indices(), rchunk.indices()
                partials = {
                    "join": _sparse_partial(lchunk, rchunk, 10, 10, 10),
                    "scatter_left": _scatter_partial(
                        lchunk, rchunk, shape, shape,
                        sparse_on_left=True),
                    "scatter_right": _scatter_partial(
                        lchunk, rchunk, shape, shape,
                        sparse_on_left=False),
                    "dense": (lchunk.to_dense(0).reshape(shape, order="F")
                              @ rchunk.to_dense(0).reshape(shape,
                                                           order="F")),
                    "gated": gated(lchunk, rchunk),
                    "coo": _coo_join(
                        a_off % 10, a_off // 10, lchunk.values(),
                        b_off % 10, b_off // 10, rchunk.values(), shape),
                }
                # + 0.0 folds BLAS's -0.0 into 0.0: the assembled
                # product treats every zero as an invalid cell
                dense = {name: None if p is None
                         else (_partial_to_dense(p) + 0.0).tobytes()
                         for name, p in partials.items()}
                # a partial that sums to all zeros may come back None
                # from one kernel and as explicit zeros from another
                zeros = np.zeros(shape).tobytes()
                assert len({zeros if d is None else d
                            for d in dense.values()}) == 1, dense
                pairs += 1
        assert pairs > 0

    def test_backends_byte_identical(self):
        serial = ClusterContext(num_executors=1,
                                default_parallelism=1)
        _, one = self._product(serial)
        threaded = ClusterContext(num_executors=4,
                                  default_parallelism=4)
        _, many = self._product(threaded)
        with ClusterContext(num_executors=2,
                            backend="process") as ctx:
            _, proc = self._product(ctx)
        assert one.tobytes() == many.tobytes() == proc.tobytes()

    def test_local_join_agrees(self, ctx):
        a = sparse_ints((40, 30), 0.05, seed=21)
        b = sparse_ints((30, 20), 0.05, seed=22)
        ma = SpangleMatrix.from_numpy(ctx, a, (10, 10))
        mb = SpangleMatrix.from_numpy(ctx, b, (10, 10))
        shuffled = ma.multiply(mb).to_numpy()
        local = ma.multiply(mb, local_join=True).to_numpy()
        assert shuffled.tobytes() == local.tobytes()


# ----------------------------------------------------------------------
# _BlockKernel contract
# ----------------------------------------------------------------------

class TestBlockKernel:
    def test_pickles_by_value(self):
        import pickle

        kernel = _BlockKernel((4, 6), (6, 5))
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.left_shape == (4, 6)
        assert clone.right_shape == (6, 5)

    def test_empty_block_short_circuits(self, ctx):
        dense = np.zeros((4, 4))
        dense[1, 2] = 1.0
        m = SpangleMatrix.from_numpy(ctx, dense, (4, 4),
                                     sparse_zeros=False)
        (_cid, chunk), = m.array.rdd.collect()
        empty = Chunk.empty(16)
        kernel = _BlockKernel((4, 4), (4, 4))
        assert kernel(empty, chunk) is None
        assert kernel(chunk, empty) is None

    # a 50×50 block holds 2 500 cells, so one cell moves its density by
    # 0.0004: 49/51 cells straddle the 0.02 gate, 249/251 the 0.1 gate,
    # and a density exactly at a gate takes the next kernel up
    @pytest.mark.parametrize("left_nnz,right_nnz,expected", [
        (49, 49, "join"),
        (50, 50, "scatter"),
        (51, 49, "scatter"),
        (49, 51, "scatter"),
        (51, 51, "scatter"),
        (249, 2500, "scatter"),
        (2500, 249, "scatter"),
        (250, 250, "dense"),
        (251, 251, "dense"),
        (251, 2500, "dense"),
    ])
    def test_gate_boundaries(self, monkeypatch, left_nnz, right_nnz,
                             expected):
        shape = (50, 50)
        left = np.zeros(shape)
        left.T.flat[:left_nnz] = np.arange(1.0, left_nnz + 1)
        right = np.zeros(shape)
        right.flat[:right_nnz] = np.arange(1.0, right_nnz + 1)
        chunks = [Chunk.from_dense(m.ravel(order="F"),
                                   m.ravel(order="F") != 0)
                  for m in (left, right)]
        assert [c.density for c in chunks] == \
            [left_nnz / 2500, right_nnz / 2500]
        calls = []

        def spy(kind, real):
            def recorded(*args, **kwargs):
                calls.append(kind)
                return real(*args, **kwargs)
            return recorded

        for name, kind in (("_sparse_partial", "join"),
                           ("_scatter_partial", "scatter")):
            monkeypatch.setattr(multiply_mod, name,
                                spy(kind, getattr(multiply_mod, name)))
        partial = _BlockKernel(shape, shape)(*chunks)
        assert calls == ([] if expected == "dense" else [expected])
        if expected == "join":
            assert isinstance(partial, _COOPartial)
        else:
            assert type(partial) is np.ndarray
        np.testing.assert_array_equal(_partial_to_dense(partial),
                                      left @ right)
