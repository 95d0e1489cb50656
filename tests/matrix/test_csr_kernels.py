"""Tests for the CSR sparse kernels in matrix multiply.

Three layers under test: the block kernels (``_csr_join`` must be
bit-identical to the per-k COO join reference in
``tests._reference.coo``; the one-sided scatter kernel must agree with
dense BLAS; every kernel yields the same bytes for a block pair), the
per-pair density gates of ``_BlockKernel``, and end to end (the product
stays byte-identical across backends and operand placements).
"""

import pickle

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
    prepare_local,
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
    #: (left, right) densities that put every block pair in one kernel
    #: regime: CSR join, one-sided scatter, dense BLAS
    REGIMES = {"join": (0.005, 0.005), "scatter": (0.04, 0.5),
               "dense": (0.5, 0.5)}

    def _product(self, ctx, seed=11):
        a = sparse_ints((40, 30), 0.05, seed=seed)
        b = sparse_ints((30, 20), 0.05, seed=seed + 1)
        ma = SpangleMatrix.from_numpy(ctx, a, (10, 10))
        mb = SpangleMatrix.from_numpy(ctx, b, (10, 10))
        return a @ b, ma.multiply(mb).to_numpy()

    @staticmethod
    def _operands(regime, values, seed):
        left, right = TestEndToEnd.REGIMES[regime]
        a = sparse_ints((40, 60), left, seed=seed)
        b = sparse_ints((60, 40), right, seed=seed + 1)
        densities = [[np.count_nonzero(m[r:r + 20, c:c + 20]) / 400
                      for r in range(0, m.shape[0], 20)
                      for c in range(0, m.shape[1], 20)] for m in (a, b)]
        if regime == "join":
            assert max(densities[0] + densities[1]) \
                < SPARSE_KERNEL_THRESHOLD
        elif regime == "scatter":
            assert max(densities[0]) < SCATTER_KERNEL_THRESHOLD \
                <= min(densities[1])
        else:
            assert min(densities[0] + densities[1]) \
                >= SCATTER_KERNEL_THRESHOLD
        if values == "float":
            rng = np.random.default_rng(seed + 2)
            for m in (a, b):
                m[m != 0] = rng.random(np.count_nonzero(m)) - 1.5
        return a, b

    @staticmethod
    def _placed_product(ctx, a, b, placement):
        """The product's chunk records, sorted, its dense value and
        numpy's: operands as built, prepared for the local join, or
        prepared and then used in each other's role. The partition
        count is fixed, so float sums add in one order everywhere."""
        ma = SpangleMatrix.from_numpy(ctx, a, (20, 20), num_partitions=3)
        mb = SpangleMatrix.from_numpy(ctx, b, (20, 20), num_partitions=3)
        if placement == "unprepared":
            product, expected = ma.multiply(mb), a @ b
        else:
            la, lb = prepare_local(ma, mb)
            product, expected = ((la.multiply(lb), a @ b)
                                 if placement == "prepared"
                                 else (lb.multiply(la), b @ a))
        return sorted(product.array.rdd.collect(),
                      key=lambda kv: kv[0]), product.to_numpy(), expected

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
        """Every kernel regime, integer and float values, operands as
        built, prepared and role-swapped: the product's chunks pickle
        to the same bytes on serial, threaded and process contexts,
        and integer products equal numpy exactly."""
        cases = [(regime, values, placement)
                 for regime in self.REGIMES
                 for values in ("int", "float")
                 for placement in ("unprepared", "prepared", "swapped")]
        serial = ClusterContext(num_executors=1,
                                default_parallelism=1)
        threaded = ClusterContext(num_executors=4,
                                  default_parallelism=4)
        with ClusterContext(num_executors=2,
                            backend="process") as proc:
            for seed, (regime, values, placement) in enumerate(cases):
                a, b = self._operands(regime, values, seed)
                runs = [self._placed_product(ctx, a, b, placement)
                        for ctx in (serial, threaded, proc)]
                case = (regime, values, placement)
                assert len({pickle.dumps(chunks)
                            for chunks, _, _ in runs}) == 1, case
                _, got, expected = runs[0]
                if values == "int":
                    np.testing.assert_array_equal(got, expected)
                else:
                    np.testing.assert_allclose(got, expected)
        _, one = self._product(serial)
        _, many = self._product(threaded)
        assert one.tobytes() == many.tobytes()

    def test_local_join_agrees(self, ctx):
        """Operands prepared for the local join give the same bytes as
        operands placed by the product itself."""
        a = sparse_ints((40, 30), 0.05, seed=21)
        b = sparse_ints((30, 20), 0.05, seed=22)
        ma = SpangleMatrix.from_numpy(ctx, a, (10, 10))
        mb = SpangleMatrix.from_numpy(ctx, b, (10, 10))
        la, lb = prepare_local(ma, mb)
        shuffled = ma.multiply(mb).to_numpy()
        local = la.multiply(lb).to_numpy()
        assert shuffled.tobytes() == local.tobytes()

    def test_gram_on_process_matches_serial(self):
        """``gram`` ships no matrix to workers: on a process context it
        gives the serial bytes and ``a.T @ a`` exactly, through an
        all-sparse row-block group and a dense one."""
        a = np.zeros((40, 30))
        a[:20] = sparse_ints((20, 30), 0.005, seed=31)   # join group
        a[20:] = sparse_ints((20, 30), 0.5, seed=32)     # dense group
        blocks = [np.count_nonzero(a[r:r + 20, c:c + 10]) / 200
                  for r in (0, 20) for c in (0, 10, 20)]
        assert max(blocks[:3]) < SPARSE_KERNEL_THRESHOLD
        assert min(blocks[3:]) >= SPARSE_KERNEL_THRESHOLD
        serial = ClusterContext(num_executors=1, default_parallelism=1)
        with ClusterContext(num_executors=2, backend="process") as proc:
            runs = [SpangleMatrix.from_numpy(ctx, a, (20, 10)).gram()
                    for ctx in (serial, proc)]
            chunks = [pickle.dumps(sorted(m.array.rdd.collect(),
                                          key=lambda kv: kv[0]))
                      for m in runs]
            got = runs[1].to_numpy()
        assert chunks[0] == chunks[1]
        np.testing.assert_array_equal(got, a.T @ a)


# ----------------------------------------------------------------------
# _BlockKernel contract
# ----------------------------------------------------------------------

class TestBlockKernel:
    def test_pickles_by_value(self):
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
