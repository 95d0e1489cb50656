"""Dense-numpy oracle for ``count_valid``.

A chain of value ops (map, scalar arithmetic, filter), repacks,
``partition_by`` shuffles and box restrictions is counted, and the count
must equal ``np.count_nonzero`` of the numpy validity array restricted
to every box and predicate — in all three chunk modes, with negative
``starts`` and ragged last chunks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrayRDD, ChunkMode
from repro.engine import ClusterContext, HashPartitioner

geometry = st.tuples(
    st.integers(3, 17), st.integers(3, 17),      # shape (ragged edges)
    st.integers(2, 6), st.integers(2, 6),        # chunk shape
    st.integers(-12, 6), st.integers(-12, 6),    # starts (negative too)
)

#: one op: (kind, a, b) with kind-specific integer parameters
ops = st.lists(
    st.tuples(
        st.sampled_from(["map", "scalar", "filter", "repack", "subarray",
                         "partition_by"]),
        st.integers(0, 1000), st.integers(0, 1000)),
    min_size=1, max_size=6)


def _box(meta, a, b):
    """A box drawn from two seeds, reaching a little past the edges."""
    lo, hi = [], []
    for axis, (start, size) in enumerate(zip(meta.starts, meta.shape)):
        span = size + 5
        x = start - 3 + (a >> (axis * 5)) % span
        y = start - 3 + (b >> (axis * 5)) % span
        lo.append(min(x, y))
        hi.append(max(x, y))
    return tuple(lo), tuple(hi)


def _map(a):
    return lambda xs: np.sin(xs) * a


def _scalar(a, b):
    """One scalar op; applies alike to an ArrayRDD and a numpy array."""
    scalar = 0.5 + b / 100.0
    return [lambda x: x * scalar, lambda x: scalar - x,
            lambda x: x / scalar, lambda x: scalar + x][a % 4]


def _keep(a):
    threshold = (a % 100) / 100.0
    return lambda xs: np.abs(xs) >= threshold


def _apply(arr, kind, a, b):
    if kind == "map":
        return arr.map_values(_map(a))
    if kind == "scalar":
        return _scalar(a, b)(arr)
    if kind == "filter":
        return arr.filter(_keep(a))
    if kind == "repack":
        return arr.repack()
    if kind == "subarray":
        return arr.subarray(*_box(arr.meta, a, b))
    return arr.partition_by(HashPartitioner(1 + a % 5))


@settings(max_examples=60, deadline=None)
@given(geo=geometry, mode=st.sampled_from(list(ChunkMode)),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 10_000),
       chain=ops)
def test_mask_only_count_matches_numpy(geo, mode, density, seed, chain):
    rows, cols, cr, cc, r0, c0 = geo
    rng = np.random.default_rng(seed)
    data = rng.random((rows, cols))
    valid = rng.random((rows, cols)) < density
    ctx = ClusterContext(2, default_parallelism=3)
    arr = ArrayRDD.from_numpy(ctx, data, (cr, cc), valid=valid,
                              mode=mode, starts=(r0, c0))
    meta = arr.meta

    # the numpy side replays every op on the dense values: value ops
    # change what a later filter sees, filters and boxes change validity
    coords = np.indices((rows, cols))
    values = data.copy()
    expected = valid.copy()
    for kind, a, b in chain:
        arr = _apply(arr, kind, a, b)
        if kind == "map":
            values = _map(a)(values)
        elif kind == "scalar":
            values = _scalar(a, b)(values)
        elif kind == "filter":
            expected &= _keep(a)(values)
        elif kind == "subarray":
            lo, hi = _box(meta, a, b)
            for axis, start in enumerate(meta.starts):
                global_coord = coords[axis] + start
                expected &= (global_coord >= lo[axis]) \
                    & (global_coord <= hi[axis])

    assert arr.count_valid() == int(np.count_nonzero(expected))
    _values, got_valid = arr.collect_dense()
    assert np.array_equal(got_valid, expected)
