"""Overlap (ghost cells) for stencil operators (Section III-A).

Operators that combine a cell with its neighbours (regridding, blurring,
density windows) need cells from adjacent chunks at chunk boundaries.
Spangle's *overlap* ships each chunk a halo of depth ``d`` from its
neighbours once, so the stencil itself runs without shuffling whole
chunks: only thin boundary slabs move.

:func:`stencil` is the user-facing entry point: the function receives
the chunk expanded by the halo — ``(values, valid)`` ndarrays of shape
``chunk_shape + 2*depth`` per axis — and returns new values (and
optionally validity) for the *core* region.
"""

from __future__ import annotations

import itertools
from functools import partial

import numpy as np

from repro.core import mapper
from repro.core.array_rdd import ArrayRDD, has_cells
from repro.core.chunk import Chunk
from repro.errors import ArrayError


def _chunk_as_ndarray(meta, chunk):
    values = chunk.to_dense(0).reshape(meta.chunk_shape, order="F")
    valid = chunk.valid_bools().reshape(meta.chunk_shape, order="F")
    return values, valid


def _normalize_depth(meta, depth):
    """Per-axis halo depths; an int applies to every axis."""
    if isinstance(depth, int):
        depths = (depth,) * meta.ndim
    else:
        depths = tuple(int(d) for d in depth)
        if len(depths) != meta.ndim:
            raise ArrayError(
                f"need {meta.ndim} per-axis depths, got {len(depths)}"
            )
    if all(d <= 0 for d in depths):
        raise ArrayError(f"overlap depth must be positive: {depths}")
    for axis, d in enumerate(depths):
        if d < 0 or d > meta.chunk_shape[axis]:
            raise ArrayError(
                f"overlap depth {d} invalid for chunk interval "
                f"{meta.chunk_shape[axis]} on axis {axis}"
            )
    return depths


def _halo_slices(meta, offsets, depths, side: str):
    """Slices of the slab exchanged for a neighbour offset vector.

    ``side="source"`` — region of *our* chunk the neighbour needs;
    ``side="target"`` — where it lands in the neighbour's expanded array.
    """
    slices = []
    for axis, o in enumerate(offsets):
        size = meta.chunk_shape[axis]
        depth = depths[axis]
        if side == "source":
            if o == 1:
                slices.append(slice(size - depth, size))
            elif o == -1:
                slices.append(slice(0, depth))
            else:
                slices.append(slice(0, size))
        else:
            if o == 1:
                slices.append(slice(0, depth))
            elif o == -1:
                slices.append(slice(size + depth, size + 2 * depth))
            else:
                slices.append(slice(depth, size + depth))
    return tuple(slices)


def expanded_chunks(array_rdd: ArrayRDD, depth: int):
    """RDD of ``(chunk_id, (expanded_values, expanded_valid))``.

    Only halo slabs are shuffled; each chunk's own body joins in through
    the (narrow, when co-partitioned) cogroup with the original RDD.
    """
    meta = array_rdd.meta
    depths = _normalize_depth(meta, depth)
    ndim = meta.ndim
    # no halos are exchanged along axes whose depth is zero
    axis_choices = [
        (-1, 0, 1) if depths[axis] > 0 else (0,)
        for axis in range(ndim)
    ]
    neighbour_offsets = [
        o for o in itertools.product(*axis_choices) if any(o)
    ]
    halos = array_rdd.rdd.map_partitions(
        partial(_emit_halos, meta, depths, neighbour_offsets))
    grouped = array_rdd.rdd.cogroup(halos,
                                    partitioner=array_rdd.rdd.partitioner)
    out = grouped.map_values(partial(_assemble, meta, depths))
    out.partitioner = grouped.partitioner
    return out


def _emit_halos(meta, depths, neighbour_offsets, part):
    """Every chunk's boundary slabs, keyed by the neighbour they go to."""
    for chunk_id, chunk in part:
        grid = mapper.chunk_coords_from_id(meta, chunk_id)
        values, valid = _chunk_as_ndarray(meta, chunk)
        for offsets in neighbour_offsets:
            target_grid = tuple(g + o for g, o in zip(grid, offsets))
            if any(not 0 <= t < meta.chunk_grid[axis]
                   for axis, t in enumerate(target_grid)):
                continue
            src = _halo_slices(meta, offsets, depths, "source")
            slab_valid = valid[src]
            if not slab_valid.any():
                continue
            target_id = mapper.chunk_id_from_chunk_coords(meta, target_grid)
            # a slab sent to the neighbour at offset +1 arrives at the
            # receiver's low-side halo: placement is keyed by the
            # sender's offset vector as-is (see _halo_slices)
            yield target_id, (offsets, values[src].copy(), slab_valid.copy())


def _assemble(meta, depths, pair):
    """A cogrouped ``(own_chunks, slabs)`` pair as the expanded
    ``(values, valid)`` arrays."""
    own_chunks, slabs = pair
    expanded_shape = tuple(s + 2 * d for s, d in zip(meta.chunk_shape,
                                                     depths))
    values = np.zeros(expanded_shape, dtype=meta.dtype)
    valid = np.zeros(expanded_shape, dtype=bool)
    if own_chunks:
        core_values, core_valid = _chunk_as_ndarray(meta, own_chunks[0])
        core = tuple(slice(d, d + s)
                     for d, s in zip(depths, meta.chunk_shape))
        values[core] = core_values
        valid[core] = core_valid
    for sender_offsets, slab_values, slab_valid in slabs:
        dst = _halo_slices(meta, sender_offsets, depths, "target")
        values[dst] = slab_values
        valid[dst] = slab_valid
    return values, valid


def stencil(array_rdd: ArrayRDD, func, depth: int) -> ArrayRDD:
    """Apply a windowed function with halo exchange.

    ``func(expanded_values, expanded_valid, depths)`` returns either
    ``core_values`` or ``(core_values, core_valid)`` for the chunk's core
    region (shape == ``chunk_shape``). Cells that were invalid stay
    invalid unless the function returns an explicit validity.

    ``depth`` may be an int (every axis) or a per-axis tuple; a zero
    entry exchanges no halo along that axis (e.g. independent images
    stacked on a time axis).
    """
    meta = array_rdd.meta
    depths = _normalize_depth(meta, depth)
    chunks = expanded_chunks(array_rdd, depth) \
        .map_values(partial(_apply_stencil, meta, func, depths)) \
        .filter(has_cells)
    chunks.partitioner = array_rdd.rdd.partitioner
    return ArrayRDD(chunks, meta, array_rdd.context)


def _apply_stencil(meta, func, depths, pair):
    """``func`` over an expanded ``(values, valid)`` pair, as a chunk."""
    values, valid = pair
    result = func(values, valid, depths)
    if isinstance(result, tuple):
        new_values, new_valid = result
    else:
        core = tuple(slice(d, d + s)
                     for d, s in zip(depths, meta.chunk_shape))
        new_values, new_valid = result, valid[core]
    new_values = np.asarray(new_values)
    if new_values.shape != meta.chunk_shape:
        raise ArrayError(
            f"stencil function returned shape {new_values.shape}, "
            f"expected {meta.chunk_shape}"
        )
    return Chunk.from_dense(new_values.ravel(order="F"),
                            np.asarray(new_valid, dtype=bool).ravel(order="F"))


def mean_stencil(window):
    """A ready-made stencil: mean of the valid cells in a window.

    ``window`` is the half-width (the overlap depth) — an int or a
    per-axis tuple matching the depth passed to :func:`stencil`.
    """
    return _window_mean


def _window_mean(values, valid, depths):
    """The :func:`mean_stencil` function: the depths are the window."""
    if isinstance(depths, int):
        depths = (depths,) * values.ndim
    filled = np.where(valid, values, 0.0)
    sums = _box_sum(filled, depths)
    counts = _box_sum(valid.astype(np.float64), depths)
    core = tuple(
        slice(d, values.shape[a] - d) if d else slice(None)
        for a, d in enumerate(depths)
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts[core] > 0,
                         sums[core] / counts[core], 0.0)
    return means, valid[core] & (counts[core] > 0)


def _box_sum(array: np.ndarray, radii) -> np.ndarray:
    """Sum over a centered box with per-axis half-widths.

    Separable moving sum via cumulative sums — O(n) per axis. A radius
    of zero leaves that axis untouched.
    """
    if isinstance(radii, int):
        radii = (radii,) * array.ndim
    out = array.astype(np.float64)
    for axis, radius in enumerate(radii):
        if radius == 0 or array.shape[axis] == 1:
            continue
        padded = np.concatenate(
            [
                np.zeros(_shape_with(out.shape, axis, radius + 1)),
                out,
                np.zeros(_shape_with(out.shape, axis, radius)),
            ],
            axis=axis,
        )
        csum = np.cumsum(padded, axis=axis)
        upper = np.take(
            csum,
            range(2 * radius + 1, 2 * radius + 1 + array.shape[axis]),
            axis=axis,
        )
        lower = np.take(csum, range(0, array.shape[axis]), axis=axis)
        out = upper - lower
    return out


def _shape_with(shape, axis, size):
    out = list(shape)
    out[axis] = size
    return tuple(out)
