"""Dense-numpy oracle for the mask-only ``count_valid`` path.

A chain of validity-preserving ops (map, scalar arithmetic, repack,
``partition_by``) and box restrictions is counted straight off the
source bitmasks — no value kernel runs. The count must equal
``np.count_nonzero`` of the numpy validity array restricted to every
box, in all three chunk modes, with negative ``starts`` and ragged last
chunks; and any box that excludes a chunk must show up as pruned chunks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrayRDD, ChunkMode
from repro.core.optimizer import lower_count_valid
from repro.engine import ClusterContext, HashPartitioner

geometry = st.tuples(
    st.integers(3, 17), st.integers(3, 17),      # shape (ragged edges)
    st.integers(2, 6), st.integers(2, 6),        # chunk shape
    st.integers(-12, 6), st.integers(-12, 6),    # starts (negative too)
)

#: one op: (kind, a, b) with kind-specific integer parameters
ops = st.lists(
    st.tuples(
        st.sampled_from(["map", "scalar", "repack", "subarray",
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


def _apply(arr, kind, a, b):
    if kind == "map":
        return arr.map_values(lambda xs: np.sin(xs) * a)
    if kind == "scalar":
        scalar = 0.5 + b / 100.0
        return [arr * scalar, scalar - arr, arr / scalar,
                scalar + arr][a % 4]
    if kind == "repack":
        return arr.repack()
    if kind == "subarray":
        return arr.subarray(*_box(arr.meta, a, b))
    return arr.partition_by(HashPartitioner(1 + a % 5))


def _box_excludes_a_chunk(meta, lo, hi) -> bool:
    for axis in range(meta.ndim):
        first_cell = max(lo[axis], meta.starts[axis]) - meta.starts[axis]
        last_cell = min(hi[axis], meta.ends[axis] - 1) - meta.starts[axis]
        if first_cell > last_cell:
            return True
        blocks = -(-meta.shape[axis] // meta.chunk_shape[axis])
        if first_cell // meta.chunk_shape[axis] > 0 or \
                last_cell // meta.chunk_shape[axis] < blocks - 1:
            return True
    return False


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

    coords = np.indices((rows, cols))
    expected = valid.copy()
    excluded = False
    for kind, a, b in chain:
        arr = _apply(arr, kind, a, b)
        if kind == "subarray":
            lo, hi = _box(meta, a, b)
            for axis, start in enumerate(meta.starts):
                global_coord = coords[axis] + start
                expected &= (global_coord >= lo[axis]) \
                    & (global_coord <= hi[axis])
            excluded |= _box_excludes_a_chunk(meta, lo, hi)

    # the chain stays on the mask-only path ...
    assert lower_count_valid(arr._logical, ctx) is not None
    before = ctx.metrics.snapshot()
    count = arr.count_valid()
    delta = ctx.metrics.snapshot() - before
    # ... which reads no values: one job over the source, no shuffle
    assert delta.jobs_run == 1
    assert delta.shuffles_performed == 0
    assert count == int(np.count_nonzero(expected))
    assert (delta.optimizer_chunks_pruned > 0) == excluded
    # the fully evaluated chain agrees with the shortcut
    _values, got_valid = arr.collect_dense()
    assert np.array_equal(got_valid, expected)
