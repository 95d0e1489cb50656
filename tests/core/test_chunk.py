"""Tests for the Chunk: three modes, access paths, elementwise ops.

``map_values``, ``filter`` and ``elementwise`` are the per-chunk eager
operators of the fused path's reference (``tests/_reference/eager.py``).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrayRDD
from repro.core.chunk import (
    Chunk,
    ChunkMode,
    DENSE_THRESHOLD,
    MODES,
    SUPER_SPARSE_THRESHOLD,
    choose_mode,
)
from repro.bitmask import Bitmask
from repro.engine import ClusterContext
from repro.errors import ArrayError, ModeError
from tests._reference import eager


def random_chunk(n, density, seed, mode=None):
    rng = np.random.default_rng(seed)
    values = rng.random(n)
    valid = rng.random(n) < density
    return Chunk.from_dense(values, valid, mode=mode), values, valid


class TestModePolicy:
    def test_thresholds(self):
        assert choose_mode(1.0) is ChunkMode.DENSE
        assert choose_mode(DENSE_THRESHOLD) is ChunkMode.DENSE
        assert choose_mode(0.1) is ChunkMode.SPARSE
        assert choose_mode(SUPER_SPARSE_THRESHOLD / 2) \
            is ChunkMode.SUPER_SPARSE

    def test_from_dense_auto_mode(self):
        chunk, _v, _m = random_chunk(4096, 0.9, seed=0)
        assert chunk.mode is ChunkMode.DENSE
        chunk, _v, _m = random_chunk(4096, 0.1, seed=0)
        assert chunk.mode is ChunkMode.SPARSE
        chunk, _v, _m = random_chunk(4096, 0.001, seed=0)
        assert chunk.mode is ChunkMode.SUPER_SPARSE


class TestModeTable:
    def test_mode_order_is_pinned(self):
        # the codec's uint8 mode byte indexes MODES, and the format-2
        # ChunkStore writes that byte to disk: reordering breaks stores
        assert MODES == (ChunkMode.DENSE, ChunkMode.SPARSE,
                         ChunkMode.SUPER_SPARSE)


class TestAssembly:
    """``from_dense`` and ``from_sparse`` assemble the same chunk."""

    @pytest.mark.parametrize("num_cells", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("dtype", ["float64", ">f8", "int32", "bool"])
    @pytest.mark.parametrize("mode", [None, *MODES],
                             ids=["policy", *(m.value for m in MODES)])
    def test_constructors_agree(self, mode, dtype, num_cells):
        rng = np.random.default_rng(num_cells)
        values = (rng.standard_normal(num_cells) * 100).astype(dtype)
        if dtype == "float64":
            values[rng.random(num_cells) < 0.3] = np.nan
        chosen = set()
        with ClusterContext(num_executors=1) as ctx:
            for count in sorted({0, 1, num_cells // 4, num_cells // 2 + 1,
                                 num_cells}):
                valid = rng.permutation(num_cells) < count
                offsets = np.flatnonzero(valid)
                dense = Chunk.from_dense(values, valid, mode=mode)
                sparse = Chunk.from_sparse(num_cells, offsets, values[valid],
                                           mode=mode)
                assert pickle.dumps(dense) == pickle.dumps(sparse)
                assert dense.mode is (mode or choose_mode(count / num_cells))
                assert np.array_equal(dense.indices(), offsets)
                assert dense == sparse
                chosen.add(dense.mode)
                for unknown in ("dense", 0):
                    with pytest.raises(ModeError):
                        Chunk.from_dense(values, valid, mode=unknown)
                    with pytest.raises(ModeError):
                        Chunk.from_sparse(num_cells, offsets, values[valid],
                                          mode=unknown)
                    with pytest.raises(ModeError):
                        ArrayRDD.from_numpy(ctx, values, (num_cells,),
                                            valid=valid, mode=unknown)
        if mode is None and num_cells > 1:
            assert chosen == set(MODES)


class TestConstruction:
    def test_all_valid_default(self):
        chunk = Chunk.from_dense(np.arange(10.0))
        assert chunk.valid_count == 10
        assert chunk.density == 1.0

    def test_mismatched_validity(self):
        with pytest.raises(ArrayError):
            Chunk.from_dense(np.arange(4.0), np.ones(5, dtype=bool))

    def test_from_sparse_sorts_offsets(self):
        chunk = Chunk.from_sparse(10, [7, 2, 5], [70.0, 20.0, 50.0])
        assert list(chunk.indices()) == [2, 5, 7]
        assert list(chunk.values()) == [20.0, 50.0, 70.0]

    def test_from_sparse_rejects_duplicates(self):
        with pytest.raises(ArrayError):
            Chunk.from_sparse(10, [1, 1], [1.0, 2.0])

    def test_from_sparse_rejects_out_of_range(self):
        with pytest.raises(ArrayError):
            Chunk.from_sparse(10, [10], [1.0])

    def test_from_sparse_length_mismatch(self):
        with pytest.raises(ArrayError):
            Chunk.from_sparse(10, [1, 2], [1.0])

    def test_nan_cell_equals_itself(self):
        with ClusterContext(num_executors=1) as ctx, \
                np.errstate(invalid="ignore"):
            [(_cid, chunk)] = ArrayRDD.from_numpy(
                ctx, np.array([[-1., 2.], [3., 4.]]), (2, 2)) \
                .map_values(np.log).rdd.collect()
        assert np.isnan(chunk.values()[0])
        assert chunk == chunk

    def test_empty(self):
        chunk = Chunk.empty(100)
        assert chunk.valid_count == 0
        assert chunk.density == 0.0


@pytest.mark.parametrize("mode", list(ChunkMode))
class TestAcrossModes:
    """Every behaviour must be identical in all three storage modes."""

    def test_get_valid_and_invalid(self, mode):
        chunk, values, valid = random_chunk(500, 0.3, seed=1, mode=mode)
        for offset in range(0, 500, 13):
            got = chunk.get(offset)
            if valid[offset]:
                assert got == values[offset]
            else:
                assert got is None

    def test_get_out_of_range(self, mode):
        chunk, _v, _m = random_chunk(64, 0.5, seed=2, mode=mode)
        with pytest.raises(ArrayError):
            chunk.get(64)

    def test_to_dense_roundtrip(self, mode):
        chunk, values, valid = random_chunk(300, 0.4, seed=3, mode=mode)
        dense = chunk.to_dense(fill=-1.0)
        assert np.allclose(dense[valid], values[valid])
        assert (dense[~valid] == -1.0).all()

    def test_values_in_offset_order(self, mode):
        chunk, values, valid = random_chunk(300, 0.4, seed=4, mode=mode)
        assert np.allclose(chunk.values(), values[valid])

    def test_indices_are_valid_offsets(self, mode):
        chunk, _values, valid = random_chunk(200, 0.2, seed=5, mode=mode)
        assert np.array_equal(chunk.indices(), np.nonzero(valid)[0])

    def test_map_values(self, mode):
        chunk, values, valid = random_chunk(200, 0.3, seed=6, mode=mode)
        doubled = eager.map_values(chunk, lambda xs: xs * 2)
        assert np.allclose(doubled.values(), values[valid] * 2)
        assert doubled.valid_count == chunk.valid_count

    def test_filter(self, mode):
        chunk, values, valid = random_chunk(200, 0.5, seed=7, mode=mode)
        kept = eager.filter_chunk(chunk, lambda xs: xs > 0.5)
        expected = valid & (np.where(valid, values, 0) > 0.5)
        assert np.array_equal(kept.valid_bools(), expected)

    def test_and_mask(self, mode):
        chunk, values, valid = random_chunk(200, 0.5, seed=8, mode=mode)
        rng = np.random.default_rng(9)
        other = rng.random(200) < 0.5
        restricted = eager.and_mask(chunk, Bitmask.from_bools(other))
        assert np.array_equal(restricted.valid_bools(), valid & other)
        assert np.allclose(restricted.values(), values[valid & other])

    def test_convert_roundtrip(self, mode):
        chunk, _values, _valid = random_chunk(300, 0.1, seed=10, mode=mode)
        for target in ChunkMode:
            converted = chunk.convert(target)
            assert converted.mode is target
            assert converted == chunk

    def test_nbytes_positive(self, mode):
        chunk, _v, _m = random_chunk(128, 0.2, seed=11, mode=mode)
        assert chunk.nbytes > 0


class TestCompression:
    def test_sparse_smaller_than_dense_when_sparse(self):
        _, values, valid = random_chunk(65_536, 0.05, seed=12)
        dense = Chunk.from_dense(values, valid, mode=ChunkMode.DENSE)
        sparse = Chunk.from_dense(values, valid, mode=ChunkMode.SPARSE)
        assert sparse.nbytes < dense.nbytes / 3

    def test_super_sparse_smaller_than_sparse_when_super_sparse(self):
        _, values, valid = random_chunk(65_536, 0.0005, seed=13)
        sparse = Chunk.from_dense(values, valid, mode=ChunkMode.SPARSE)
        hyper = Chunk.from_dense(values, valid,
                                 mode=ChunkMode.SUPER_SPARSE)
        assert hyper.nbytes < sparse.nbytes / 2

    def test_recompress_after_filter(self):
        chunk, _values, _valid = random_chunk(65_536, 0.9, seed=14)
        assert chunk.mode is ChunkMode.DENSE
        nearly_empty = eager.filter_chunk(chunk, lambda xs: xs > 0.9999)
        assert nearly_empty.mode is not ChunkMode.DENSE

    def test_and_mask_recompresses(self):
        chunk, _values, _valid = random_chunk(65_536, 0.9, seed=15)
        tiny = Bitmask.from_indices(65_536, [1, 2, 3])
        restricted = eager.and_mask(chunk, tiny)
        assert restricted.mode is ChunkMode.SUPER_SPARSE


class TestElementwise:
    @pytest.mark.parametrize("left_mode", list(ChunkMode))
    @pytest.mark.parametrize("right_mode", list(ChunkMode))
    def test_and_semantics(self, left_mode, right_mode):
        a, av, am = random_chunk(300, 0.4, seed=16, mode=left_mode)
        b, bv, bm = random_chunk(300, 0.4, seed=17, mode=right_mode)
        out = eager.elementwise(a, b, np.multiply, how="and")
        both = am & bm
        assert np.array_equal(out.valid_bools(), both)
        assert np.allclose(out.values(), (av * bv)[both])

    def test_or_semantics_with_fill(self):
        a, av, am = random_chunk(300, 0.3, seed=18)
        b, bv, bm = random_chunk(300, 0.3, seed=19)
        out = eager.elementwise(a, b, np.add, how="or", fill=0.0)
        either = am | bm
        expected = np.where(am, av, 0.0) + np.where(bm, bv, 0.0)
        assert np.array_equal(out.valid_bools(), either)
        assert np.allclose(out.values(), expected[either])

    def test_size_mismatch(self):
        a = Chunk.from_dense(np.arange(4.0))
        b = Chunk.from_dense(np.arange(5.0))
        with pytest.raises(ArrayError):
            eager.elementwise(a, b, np.add)

    def test_unknown_how(self):
        a = Chunk.from_dense(np.arange(4.0))
        with pytest.raises(ArrayError):
            eager.elementwise(a, a, np.add, how="xor")

    def test_and_skips_null_pairs(self):
        """Bitmask AND means no op is applied to invalid pairs (Fig. 5)."""
        calls = []

        def spying_op(x, y):
            calls.append(x.size)
            return x * y

        a = Chunk.from_sparse(1000, [1, 2], [1.0, 2.0])
        b = Chunk.from_sparse(1000, [2, 3], [4.0, 5.0])
        out = eager.elementwise(a, b, spying_op, how="and")
        assert calls == [1]  # only the single common cell was computed
        assert out.valid_count == 1
        assert out.get(2) == 8.0


@settings(max_examples=40)
@given(
    n=st.integers(1, 400),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
def test_chunk_roundtrip_property(n, density, seed):
    rng = np.random.default_rng(seed)
    values = rng.random(n)
    valid = rng.random(n) < density
    chunk = Chunk.from_dense(values, valid)
    assert chunk.valid_count == int(valid.sum())
    assert np.allclose(chunk.to_dense(0)[valid], values[valid])
    for mode in ChunkMode:
        assert chunk.convert(mode) == chunk
