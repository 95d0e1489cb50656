"""Per-cell reference for the piece shuffle that moves cells to chunks.

:func:`ingest_cells` is record ingest the way it ran before cells moved
as ``(offsets, values)`` pieces: every cell is located on its own by the
scalar Algorithm 1 (:func:`mapper.chunk_id_for_coords`,
:func:`mapper.local_offset`), its value becomes a plain Python scalar,
it crosses the shuffle as one ``(chunk_id, (offset, value))`` pair, and
each chunk is built from its pairs with the values cast to the array's
dtype. :func:`move_cells` feeds it every valid cell of an array, its
coordinates from the scalar inverse and reordered, which is what
``rechunk`` and ``permute_axes`` compute. Output chunks must pickle byte
for byte like the piece shuffle's.
"""

import numpy as np

from repro.core import mapper
from repro.core.chunk import Chunk
from repro.core.metadata import ArrayMetadata
from repro.engine import HashPartitioner


class _CellPairs:
    """One ``(chunk_id, (offset, value))`` pair per cell record."""

    def __init__(self, meta):
        self.meta = meta

    def __call__(self, part):
        part = list(part)
        if not part:
            return
        values = np.array([value for _coords, value in part])
        if values.dtype != object:
            values = values.tolist()
        for (coords, _value), value in zip(part, values):
            yield (mapper.chunk_id_for_coords(self.meta, coords),
                   (mapper.local_offset(self.meta, coords), value))


class _BuildChunk:
    def __init__(self, meta):
        self.meta = meta

    def __call__(self, pairs):
        offsets = np.array([offset for offset, _value in pairs],
                           dtype=np.int64)
        values = np.array([value for _offset, value in pairs],
                          dtype=self.meta.dtype)
        return Chunk.from_sparse(self.meta.cells_per_chunk, offsets, values)


def ingest_cells(cell_rdd, meta, num_partitions):
    """The ``(chunk_id, Chunk)`` RDD of ``(coords, value)`` records."""
    return cell_rdd.map_partitions(_CellPairs(meta)) \
        .group_by_key(partitioner=HashPartitioner(num_partitions)) \
        .map_values(_BuildChunk(meta))


class _ValidCells:
    """Every valid cell of a partition's chunks as a ``(coords, value)``
    record, new axis ``i`` taking old axis ``order[i]``."""

    def __init__(self, meta, order):
        self.meta = meta
        self.order = order

    def __call__(self, part):
        for chunk_id, chunk in part:
            for offset, value in zip(chunk.indices().tolist(),
                                     chunk.values().tolist()):
                coords = mapper.coords_for_offset(self.meta, chunk_id,
                                                  offset)
                yield tuple(coords[a] for a in self.order), value


def move_cells(array, order, chunk_shape):
    """The chunk RDD of ``array`` with its axes reordered by ``order``
    and cut into ``chunk_shape``."""
    meta = array.meta
    new_meta = ArrayMetadata(
        tuple(meta.shape[a] for a in order), chunk_shape,
        starts=tuple(meta.starts[a] for a in order),
        dim_names=tuple(meta.dim_names[a] for a in order),
        dtype=meta.dtype, attribute=meta.attribute)
    cells = array.rdd.map_partitions(_ValidCells(meta, tuple(order)))
    return ingest_cells(cells, new_meta, array.rdd.num_partitions)
