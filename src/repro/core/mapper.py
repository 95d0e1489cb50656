"""The mapper: Algorithm 1 and its inverses (Section III-C).

Translates between the logical layout (global coordinates) and the
physical layout (chunk IDs plus payload offsets). The conventions follow
Algorithm 1 exactly: dimension 0 varies fastest in the chunk-ID
numbering, and the same fastest-first order is used for the local offset
of a cell inside its chunk.

Every cell builder takes Section III-A's two steps here: :func:`locate`
is the one vectorized Algorithm 1 (bounds-checked chunk IDs and local
offsets of an ``(n, ndim)`` coordinate matrix), and
:func:`runs_by_chunk` groups the cells that share a chunk ID.
:func:`chunk_major` and :func:`chunk_major_index` lay out a whole dense
array chunk by chunk for ``ArrayRDD.from_numpy``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.metadata import ArrayMetadata
from repro.errors import CoordinateError


def chunk_id_for_coords(meta: ArrayMetadata, coords) -> int:
    """Algorithm 1: compute a chunk ID from global coordinates."""
    coords = meta.check_coords(coords)
    chunk_id = 0
    length = 1
    for axis in range(meta.ndim):
        pos = coords[axis] - meta.starts[axis]
        chunk_id += (pos // meta.chunk_shape[axis]) * length
        length *= meta.chunk_grid[axis]
    return chunk_id


def chunk_coords_from_id(meta: ArrayMetadata, chunk_id: int) -> tuple:
    """Inverse of Algorithm 1: chunk-grid coordinates of a chunk ID."""
    if not 0 <= chunk_id < meta.num_chunks:
        raise CoordinateError(
            f"chunk id {chunk_id} out of range [0, {meta.num_chunks})"
        )
    grid_coords = []
    remaining = chunk_id
    for grid_size in meta.chunk_grid:
        grid_coords.append(remaining % grid_size)
        remaining //= grid_size
    return tuple(grid_coords)


def chunk_id_from_chunk_coords(meta: ArrayMetadata, grid_coords) -> int:
    """Chunk ID from chunk-grid coordinates."""
    chunk_id = 0
    length = 1
    for axis, g in enumerate(grid_coords):
        if not 0 <= g < meta.chunk_grid[axis]:
            raise CoordinateError(
                f"chunk grid coord {g} out of range on axis {axis}"
            )
        chunk_id += g * length
        length *= meta.chunk_grid[axis]
    return chunk_id


def chunk_origin(meta: ArrayMetadata, chunk_id: int) -> tuple:
    """Global coordinates of the first cell of a chunk."""
    grid = chunk_coords_from_id(meta, chunk_id)
    return tuple(
        start + g * interval
        for start, g, interval in zip(meta.starts, grid, meta.chunk_shape)
    )


def local_offset(meta: ArrayMetadata, coords) -> int:
    """Payload offset of a cell inside its chunk (dimension 0 fastest)."""
    coords = meta.check_coords(coords)
    offset = 0
    length = 1
    for axis in range(meta.ndim):
        pos = coords[axis] - meta.starts[axis]
        offset += (pos % meta.chunk_shape[axis]) * length
        length *= meta.chunk_shape[axis]
    return offset


def coords_for_offset(meta: ArrayMetadata, chunk_id: int,
                      offset: int) -> tuple:
    """Global coordinates of the cell at ``offset`` in chunk ``chunk_id``.

    May produce coordinates beyond the array boundary for the padding
    cells of an edge chunk; callers treating those as valid is a bug the
    bitmask already prevents.
    """
    origin = chunk_origin(meta, chunk_id)
    coords = []
    remaining = offset
    for axis in range(meta.ndim):
        coords.append(origin[axis] + remaining % meta.chunk_shape[axis])
        remaining //= meta.chunk_shape[axis]
    return tuple(coords)


def in_bounds_mask_for_chunk(meta: ArrayMetadata,
                             chunk_id: int) -> np.ndarray:
    """Boolean array over a chunk's cells: inside the array boundary?

    All-true except for edge chunks, whose padding cells are forever
    invalid.
    """
    origin = chunk_origin(meta, chunk_id)
    grids = np.meshgrid(
        *[
            np.arange(origin[axis], origin[axis] + meta.chunk_shape[axis])
            for axis in range(meta.ndim)
        ],
        indexing="ij",
    )
    inside = np.ones(meta.chunk_shape, dtype=bool)
    for axis in range(meta.ndim):
        inside &= grids[axis] < meta.ends[axis]
    # local offset order is dimension-0-fastest == Fortran ravel
    return inside.ravel(order="F")


# ----------------------------------------------------------------------
# vectorized: Algorithm 1, grouping by chunk, whole-array layouts
# ----------------------------------------------------------------------

def locate(meta: ArrayMetadata, coords) -> tuple:
    """Vectorized Algorithm 1: ``(chunk_ids, offsets)`` for an
    ``(n, ndim)`` coordinate matrix, in one pass over the axes.

    The first row outside the array raises :class:`CoordinateError`
    with :meth:`ArrayMetadata.check_coords`'s message.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != meta.ndim:
        raise CoordinateError(
            f"expected an (n, {meta.ndim}) coordinate matrix, got "
            f"shape {coords.shape}"
        )
    chunk_ids = np.zeros(coords.shape[0], dtype=np.int64)
    offsets = np.zeros(coords.shape[0], dtype=np.int64)
    id_stride = offset_stride = 1
    for axis in range(meta.ndim):
        pos = coords[:, axis] - meta.starts[axis]
        if pos.size and not 0 <= pos.min() <= pos.max() < meta.shape[axis]:
            outside = (coords < meta.starts) | (coords >= meta.ends)
            meta.check_coords(coords[np.argmax(outside.any(axis=1))])
        # ``//`` and ``%`` rather than ``divmod``: numpy reuses each
        # product's temporary, so the pass holds one fewer n-cell array
        chunk_ids += pos // meta.chunk_shape[axis] * id_stride
        offsets += pos % meta.chunk_shape[axis] * offset_stride
        id_stride *= meta.chunk_grid[axis]
        offset_stride *= meta.chunk_shape[axis]
    return chunk_ids, offsets


def runs_by_chunk(chunk_ids, *columns):
    """Group cells by chunk ID with one stable sort: yields
    ``(chunk_id, *column_slices)`` per distinct ID, ascending, each run
    keeping its cells' input order."""
    order = np.argsort(chunk_ids, kind="stable")
    chunk_ids = chunk_ids[order]
    columns = [column[order] for column in columns]
    # a boolean compare, not ``np.diff``: no n-cell int64 temporaries
    changes = np.flatnonzero(chunk_ids[1:] != chunk_ids[:-1]) + 1
    bounds = [0, *changes.tolist(), chunk_ids.size] if chunk_ids.size else []
    for lo, hi in zip(bounds, bounds[1:]):
        yield (int(chunk_ids[lo]), *(column[lo:hi] for column in columns))


def chunk_major(meta: ArrayMetadata, cells: np.ndarray) -> np.ndarray:
    """``cells`` (shaped like the array) as one row per chunk ID whose
    columns are the local offsets, both dimension-0-fastest; cells past
    the array's edge read zero (``False``)."""
    grid, interval = meta.chunk_grid, meta.chunk_shape
    padded = tuple(g * c for g, c in zip(grid, interval))
    if padded != cells.shape:
        out = np.zeros(padded, dtype=cells.dtype)
        out[tuple(slice(0, n) for n in cells.shape)] = cells
        cells = out
    split = cells.reshape([n for pair in zip(grid, interval) for n in pair])
    axes = list(range(2 * meta.ndim - 2, -1, -2))
    return split.transpose(axes + [a + 1 for a in axes]).reshape(
        meta.num_chunks, meta.cells_per_chunk)


def chunk_major_index(meta: ArrayMetadata) -> tuple:
    """``(base, local)``: cell ``offset`` of chunk ``chunk_id`` is element
    ``base[chunk_id] + local[offset]`` of the array's C-order ravel
    (padding cells past the edge land elsewhere: index valid ones only)."""
    ids, offsets = np.arange(meta.num_chunks), np.arange(meta.cells_per_chunk)
    base, local = np.zeros_like(ids), np.zeros_like(offsets)
    for axis, (grid, interval) in enumerate(zip(meta.chunk_grid,
                                                meta.chunk_shape)):
        stride = math.prod(meta.shape[axis + 1:])
        base += ids % grid * (interval * stride)
        local += offsets % interval * stride
        ids //= grid
        offsets //= interval
    return base, local


def coords_for_offsets_array(meta: ArrayMetadata, chunk_id: int,
                             offsets: np.ndarray) -> np.ndarray:
    """Vectorized inverse: ``(n, ndim)`` global coords for payload offsets."""
    offsets = np.asarray(offsets, dtype=np.int64)
    origin = chunk_origin(meta, chunk_id)
    out = np.empty((offsets.size, meta.ndim), dtype=np.int64)
    remaining = offsets.copy()
    for axis in range(meta.ndim):
        out[:, axis] = origin[axis] + remaining % meta.chunk_shape[axis]
        remaining //= meta.chunk_shape[axis]
    return out


# ----------------------------------------------------------------------
# range queries
# ----------------------------------------------------------------------

def chunk_ids_in_range(meta: ArrayMetadata, lo, hi) -> list:
    """Chunk IDs whose box intersects the closed coordinate box [lo, hi].

    ``lo``/``hi`` are global top-left and bottom-right corners, the way
    Subarray takes them (Section V-A-1).
    """
    lo = tuple(int(c) for c in lo)
    hi = tuple(int(c) for c in hi)
    if len(lo) != meta.ndim or len(hi) != meta.ndim:
        raise CoordinateError(
            f"range corners must have {meta.ndim} coordinates"
        )
    if any(a > b for a, b in zip(lo, hi)):
        raise CoordinateError(f"empty range: lo={lo} > hi={hi}")
    axis_ranges = []
    for axis in range(meta.ndim):
        clamped_lo = max(lo[axis], meta.starts[axis])
        clamped_hi = min(hi[axis], meta.ends[axis] - 1)
        if clamped_lo > clamped_hi:
            return []
        first = (clamped_lo - meta.starts[axis]) // meta.chunk_shape[axis]
        last = (clamped_hi - meta.starts[axis]) // meta.chunk_shape[axis]
        axis_ranges.append(range(first, last + 1))
    ids = []
    for grid_coords in itertools.product(*axis_ranges):
        ids.append(chunk_id_from_chunk_coords(meta, grid_coords))
    return sorted(ids)


def chunk_fully_inside(meta: ArrayMetadata, chunk_id: int, lo, hi) -> bool:
    """Is the chunk's whole box inside the closed range [lo, hi]?

    Pure integer arithmetic — lets Subarray skip building the virtual
    bitmask (it would be all-ones) for interior chunks.
    """
    origin = chunk_origin(meta, chunk_id)
    for first, extent, end, a, b in zip(origin, meta.chunk_shape,
                                        meta.ends, lo, hi):
        # the chunk's last *in-bounds* cell along this axis
        if first < a or min(first + extent, end) - 1 > b:
            return False
    return True


def range_mask_for_chunk(meta: ArrayMetadata, chunk_id: int,
                         lo, hi) -> np.ndarray:
    """Boolean array over a chunk's cells: inside the closed box [lo, hi]?

    This is the *virtual bitmask* of Fig. 4a — Subarray ANDs it with the
    chunk's own bitmask.
    """
    origin = chunk_origin(meta, chunk_id)
    grids = np.meshgrid(
        *[
            np.arange(origin[axis], origin[axis] + meta.chunk_shape[axis])
            for axis in range(meta.ndim)
        ],
        indexing="ij",
    )
    inside = np.ones(meta.chunk_shape, dtype=bool)
    for axis in range(meta.ndim):
        inside &= (grids[axis] >= lo[axis]) & (grids[axis] <= hi[axis])
    return inside.ravel(order="F")
