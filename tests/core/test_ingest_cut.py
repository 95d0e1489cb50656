"""``ArrayRDD.from_numpy`` cuts the whole chunk grid in one vectorised
pass; the per-chunk cutter of :meth:`EagerArray.from_numpy
<tests._reference.eager.EagerArray.from_numpy>` is its oracle.

Both must store the same chunk IDs, and every chunk must pickle
byte-identically: over 1-4-D shapes with ragged last chunks and chunks
larger than the array, negative and positive ``starts``, densities in
all three modes (exactly 0.5 and 1/256 included), every forced mode,
float64 with NaN, float32, int64 and bool values, all-invalid arrays,
and C-ordered, Fortran-ordered and strided inputs — also after the
chunks round-trip through a process-backend worker.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ArrayRDD, ChunkMode
from repro.core.chunk import SUPER_SPARSE_THRESHOLD
from repro.engine import ClusterContext
from tests._reference.eager import EagerArray

DTYPES = (np.float64, np.float32, np.int64, np.bool_)
LAYOUTS = ("C", "F", "strided")


@st.composite
def geometries(draw):
    """``(shape, chunk_shape, starts)``: 1-4 axes, ragged last chunks,
    chunks larger than the array, negative and positive starts."""
    ndim = draw(st.integers(1, 4))
    most = (40, 12, 7, 5)[ndim - 1]
    shape = tuple(draw(st.integers(1, most)) for _ in range(ndim))
    chunk_shape = tuple(draw(st.integers(1, most + 2)) for _ in range(ndim))
    starts = tuple(draw(st.integers(-12, 12)) for _ in range(ndim))
    return shape, chunk_shape, starts


def _values(rng, shape, dtype, layout, nan_share):
    """Values of ``dtype`` laid out as ``layout``; floats get NaNs."""
    if layout == "strided":
        # every other cell along axis 0 of a twice-as-long array
        big = (shape[0] * 2,) + shape[1:]
        return _values(rng, big, dtype, "C", nan_share)[::2]
    values = rng.normal(0.0, 10.0, size=shape)
    if dtype is np.float64:
        values[rng.random(shape) < nan_share] = np.nan
    values = values.astype(dtype)
    return np.asfortranarray(values) if layout == "F" else values


def _assert_cut_matches(chunks, array, inputs, mode):
    """``chunks`` (collected ``(chunk_id, Chunk)`` records) == the
    oracle's cut of ``inputs`` (``(values, valid)``)."""
    got = dict(chunks)
    expected = EagerArray.from_numpy(array.meta, *inputs, mode).chunks
    assert sorted(got) == sorted(expected)
    assert array._chunk_ids == frozenset(expected)
    for chunk_id, chunk in expected.items():
        assert pickle.dumps(got[chunk_id]) == pickle.dumps(chunk), chunk_id


def _ingest(ctx, values, chunk_shape, valid, mode, starts=None):
    array = ArrayRDD.from_numpy(ctx, values, chunk_shape, valid=valid,
                                mode=mode, starts=starts,
                                num_partitions=3)
    return array, (values, valid)


@settings(max_examples=150, deadline=None)
@given(geometry=geometries(),
       density=st.sampled_from([0.0, SUPER_SPARSE_THRESHOLD, 0.02, 0.3,
                                0.5, 0.8, 1.0]) | st.floats(0.0, 1.0),
       mode=st.sampled_from([None] + list(ChunkMode)),
       dtype=st.sampled_from(DTYPES), layout=st.sampled_from(LAYOUTS),
       all_valid=st.booleans(), seed=st.integers(0, 10_000))
# a grid whose chunk-major rows are a Fortran-ordered view, not a copy
@example(geometry=((1, 2), (9, 1), (0, 0)), density=0.5, mode=None,
         dtype=np.float64, layout="C", all_valid=False, seed=0)
def test_vectorised_cut_matches_per_chunk_oracle(geometry, density, mode,
                                                 dtype, layout, all_valid,
                                                 seed):
    shape, chunk_shape, starts = geometry
    rng = np.random.default_rng(seed)
    values = _values(rng, shape, dtype, layout, nan_share=0.1)
    valid = None if all_valid else rng.random(shape) < density
    with ClusterContext(num_executors=1) as ctx:
        array, inputs = _ingest(ctx, values, chunk_shape, valid, mode,
                                starts)
        _assert_cut_matches(array.rdd.collect(), array, inputs, mode)


def test_exact_threshold_densities_pick_the_oracles_modes():
    """One 16x16 chunk per row band: 128 valid cells (exactly 0.5) is
    DENSE, 1 (exactly 1/256) SPARSE, 127 SPARSE, 0 stores nothing."""
    valid = np.zeros((64, 16), dtype=bool)
    valid[:16].flat[:128] = True
    valid[16:32].flat[:1] = True
    valid[32:48].flat[:127] = True
    values = np.arange(valid.size, dtype=np.float64).reshape(valid.shape)
    with ClusterContext(num_executors=1) as ctx:
        array, inputs = _ingest(ctx, values, (16, 16), valid, None)
        chunks = array.rdd.collect()
        _assert_cut_matches(chunks, array, inputs, None)
    assert {cid: chunk.mode for cid, chunk in chunks} == {
        0: ChunkMode.DENSE, 1: ChunkMode.SPARSE, 2: ChunkMode.SPARSE}


@pytest.mark.parametrize("mode", [None] + list(ChunkMode))
def test_all_invalid_array_stores_no_chunk(mode):
    values = np.full((9, 7), np.nan)
    with ClusterContext(num_executors=1) as ctx:
        array, inputs = _ingest(ctx, values, (4, 4), None, mode)
        assert array.rdd.collect() == []
        _assert_cut_matches([], array, inputs, mode)


@pytest.mark.parametrize("mode", [None] + list(ChunkMode))
def test_process_worker_round_trip_keeps_pickles(mode):
    """Chunks collected through a process-backend worker still pickle
    exactly as the oracle's driver-side chunks do."""
    rng = np.random.default_rng(3)
    values = _values(rng, (37, 21, 3), np.float64, "F", nan_share=0.05)
    valid = rng.random(values.shape) < np.linspace(0.001, 0.9, 3)
    with ClusterContext(num_executors=2, backend="process") as ctx:
        array, inputs = _ingest(ctx, values, (8, 16, 2), valid, mode,
                                starts=(-5, 3, 0))
        chunks = array.rdd.collect()
        assert ctx.metrics.snapshot().tasks_launched >= 3
        _assert_cut_matches(chunks, array, inputs, mode)
