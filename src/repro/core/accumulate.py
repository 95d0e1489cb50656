"""The distributed Accumulator (Section V-B): running accumulation
along an axis of an ArrayRDD.

"If there are cells involved in separate chunks in a direction, the
value of a previous cell must be computed with the next cell" — chunks
along the axis form *strips* that must agree on carries at their
boundaries. Two execution modes, as the paper describes:

- **sync** — strips advance one chunk-step at a time; every step is a
  separate job whose carries feed the next (a barrier per boundary).
- **async** — one parallel pass computes every chunk's internal prefix
  and per-strip totals; the driver runs an exclusive scan over the tiny
  totals; a second parallel pass adds each chunk's offset. For an
  associative operator the result is exact — two barriers total.

Invalid cells pass the running value through and stay invalid.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

import numpy as np

from repro.core import mapper
from repro.core.array_rdd import ArrayRDD
from repro.core.chunk import Chunk
from repro.errors import ArrayError

_OPS = {
    "sum": (np.add, 0.0),
    "prod": (np.multiply, 1.0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


def _resolve_op(op):
    if isinstance(op, str):
        try:
            return _OPS[op]
        except KeyError:
            raise ArrayError(
                f"unknown accumulation op {op!r}; have {sorted(_OPS)}"
            ) from None
    if isinstance(op, tuple) and len(op) == 2:
        return op
    raise ArrayError(
        "op must be a name or a (ufunc, identity) pair"
    )


def _strip_key(meta, chunk_id: int, axis: int):
    """(cross-axis grid coords, position along the axis)."""
    grid = mapper.chunk_coords_from_id(meta, chunk_id)
    cross = tuple(g for a, g in enumerate(grid) if a != axis)
    return cross, grid[axis]


def _chunk_prefix(meta, chunk, axis, ufunc, identity):
    """Internal prefix over one chunk; returns (prefix, valid, total)."""
    shape = meta.chunk_shape
    dense = chunk.to_dense(0).reshape(shape, order="F")
    valid = chunk.valid_bools().reshape(shape, order="F")
    filled = np.where(valid, dense, identity)
    prefix = ufunc.accumulate(filled.astype(np.float64), axis=axis)
    total = np.take(prefix, -1, axis=axis)
    return prefix, valid, total


def _rebuild(prefix, valid):
    return Chunk.from_dense(prefix.ravel(order="F"),
                            valid.ravel(order="F"))


def _internal(meta, axis, ufunc, identity, part):
    """Async phase 1: each chunk's internal prefix, validity and total."""
    for chunk_id, chunk in part:
        yield chunk_id, _chunk_prefix(meta, chunk, axis, ufunc, identity)


def _apply_offsets(offsets, axis, ufunc, pair):
    """Async phase 3: a staged chunk plus its broadcast strip offset."""
    chunk_id, (prefix, valid, _total) = pair
    offset = offsets.value.get(chunk_id)
    if offset is not None:
        prefix = ufunc(prefix, np.expand_dims(offset, axis))
    return chunk_id, _rebuild(prefix, valid)


def _advance(meta, axis, ufunc, identity, step, carries, part):
    """Sync step ``step``: the chunks at that strip position, carried."""
    for chunk_id, chunk in part:
        cross, position = _strip_key(meta, chunk_id, axis)
        if position != step:
            continue
        prefix, valid, total = _chunk_prefix(meta, chunk, axis, ufunc,
                                             identity)
        carry = carries.get(cross)
        if carry is not None:
            prefix = ufunc(prefix, np.expand_dims(carry, axis))
            total = ufunc(total, carry)
        yield chunk_id, (_rebuild(prefix, valid), total, cross)


def accumulate_axis(array: ArrayRDD, axis, op="sum",
                    mode: str = "async") -> ArrayRDD:
    """Running accumulation along ``axis``; returns a new ArrayRDD."""
    meta = array.meta
    if isinstance(axis, str):
        axis = meta.dim_index(axis)
    if not 0 <= axis < meta.ndim:
        raise ArrayError(f"axis {axis} out of range for {meta.ndim}-D")
    ufunc, identity = _resolve_op(op)
    if mode == "async":
        return _accumulate_async(array, axis, ufunc, identity)
    if mode == "sync":
        return _accumulate_sync(array, axis, ufunc, identity)
    raise ArrayError(f"unknown accumulator mode {mode!r}")


def _accumulate_async(array, axis, ufunc, identity):
    meta = array.meta

    # phase 1 (parallel): internal prefixes + per-chunk strip totals
    staged = array.rdd.map_partitions(
        partial(_internal, meta, axis, ufunc, identity),
        preserves_partitioning=True).cache()

    # phase 2 (driver): exclusive scan of the tiny per-chunk totals
    totals = staged.map_values(itemgetter(2)).collect()
    strips = {}
    for chunk_id, total in totals:
        cross, position = _strip_key(meta, chunk_id, axis)
        strips.setdefault(cross, []).append((position, chunk_id, total))
    offsets = {}
    for cross, members in strips.items():
        members.sort()
        carry = None
        for _position, chunk_id, total in members:
            if carry is not None:
                offsets[chunk_id] = carry
                carry = ufunc(carry, total)
            else:
                carry = total

    # phase 3 (parallel): add offsets, rebuild chunks
    out = staged.map(partial(_apply_offsets, array.context.broadcast(
        offsets), axis, ufunc))
    out.partitioner = array.rdd.partitioner
    result = ArrayRDD(out, meta, array.context).materialize()
    staged.unpersist()
    return result


def _accumulate_sync(array, axis, ufunc, identity):
    """One job per chunk-step along the axis (a barrier per boundary)."""
    meta = array.meta
    steps = meta.chunk_grid[axis]
    carries = {}
    finished = []
    for step in range(steps):
        produced = array.rdd.map_partitions(partial(
            _advance, meta, axis, ufunc, identity, step, carries)).collect()
        for chunk_id, (chunk, total, cross) in produced:
            finished.append((chunk_id, chunk))
            carries[cross] = total
    return ArrayRDD.from_chunks(array.context, finished, meta,
                                array.rdd.num_partitions)
