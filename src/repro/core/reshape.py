"""Layout transformations: re-chunking and axis permutation.

Chunk geometry is a first-class performance knob in the paper (all of
Fig. 8/9 is about it), so a production array system needs to *change*
it: :func:`rechunk` redistributes cells into a new chunk interval, and
:func:`permute_axes` reorders dimensions (the general form of the
matrix transpose). Both move cells through one shuffle keyed by the
destination chunk ID; all coordinate arithmetic is vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.core import mapper
from repro.core.array_rdd import ArrayRDD
from repro.core.chunk import Chunk
from repro.core.metadata import ArrayMetadata
from repro.engine import HashPartitioner
from repro.errors import ArrayError, MetadataError


def _shuffle_cells(array: ArrayRDD, new_meta: ArrayMetadata,
                   coord_transform=None,
                   num_partitions=None) -> ArrayRDD:
    """Move every valid cell to its chunk under ``new_meta``.

    ``coord_transform(coords_matrix) -> coords_matrix`` optionally maps
    old global coordinates to new ones (identity for rechunk).
    """
    old_meta = array.meta
    if num_partitions is None:
        num_partitions = array.rdd.num_partitions
    cells_per_chunk = new_meta.cells_per_chunk

    def emit(part):
        for chunk_id, chunk in part:
            offsets = chunk.indices()
            if offsets.size == 0:
                continue
            coords = mapper.coords_for_offsets_array(old_meta, chunk_id,
                                                     offsets)
            if coord_transform is not None:
                coords = coord_transform(coords)
            for new_id, offsets, values in mapper.runs_by_chunk(
                    *mapper.locate(new_meta, coords), chunk.values()):
                yield new_id, (offsets, values)

    partitioner = HashPartitioner(num_partitions)

    def build(pieces):
        offsets = np.concatenate([p[0] for p in pieces])
        values = np.concatenate([p[1] for p in pieces])
        return Chunk.from_sparse(cells_per_chunk, offsets, values)

    chunks = array.rdd.map_partitions(emit) \
        .group_by_key(partitioner=partitioner) \
        .map_values(build)
    chunks.partitioner = partitioner
    return ArrayRDD(chunks, new_meta, array.context)


def rechunk(array: ArrayRDD, new_chunk_shape,
            num_partitions=None) -> ArrayRDD:
    """Redistribute an array into a new chunk interval.

    One shuffle; cell values and validity are preserved exactly. Use it
    to move between scan-friendly large chunks and update-friendly
    small ones (the Fig. 8/9 trade-off).
    """
    new_chunk_shape = tuple(int(c) for c in new_chunk_shape)
    if len(new_chunk_shape) != array.meta.ndim:
        raise MetadataError(
            f"chunk shape arity {len(new_chunk_shape)} != "
            f"array arity {array.meta.ndim}"
        )
    new_meta = ArrayMetadata(array.meta.shape, new_chunk_shape,
                             starts=array.meta.starts,
                             dim_names=array.meta.dim_names,
                             dtype=array.meta.dtype,
                             attribute=array.meta.attribute)
    if new_meta.chunk_shape == array.meta.chunk_shape:
        return array
    return _shuffle_cells(array, new_meta,
                          num_partitions=num_partitions)


def permute_axes(array: ArrayRDD, order,
                 num_partitions=None) -> ArrayRDD:
    """Reorder dimensions (``order`` = new-axis → old-axis, à la numpy).

    ``permute_axes(m, (1, 0))`` is the distributed transpose.
    """
    order = tuple(int(a) for a in order)
    meta = array.meta
    if sorted(order) != list(range(meta.ndim)):
        raise ArrayError(
            f"order must be a permutation of 0..{meta.ndim - 1}, "
            f"got {order}"
        )
    new_meta = ArrayMetadata(
        tuple(meta.shape[a] for a in order),
        tuple(meta.chunk_shape[a] for a in order),
        starts=tuple(meta.starts[a] for a in order),
        dim_names=tuple(meta.dim_names[a] for a in order),
        dtype=meta.dtype,
        attribute=meta.attribute,
    )

    def transform(coords):
        return coords[:, list(order)]

    return _shuffle_cells(array, new_meta, coord_transform=transform,
                          num_partitions=num_partitions)
