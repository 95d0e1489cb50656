"""Ingest pipeline: cell records → chunks → ArrayRDD (Section III-A).

Spangle ingests data (CSV, NetCDF) by assigning every cell a chunk ID
(Algorithm 1), grouping cells with equal IDs, and building payloads and
bitmasks — all as one pipeline. Empty chunks are never created.

The cell-record form is ``(coords_tuple, value)``.
"""

from __future__ import annotations

import numpy as np

from repro.core import mapper
from repro.core.array_rdd import ArrayRDD
from repro.core.chunk import Chunk
from repro.core.metadata import ArrayMetadata
from repro.engine import HashPartitioner
from repro.errors import IngestError


# module-level task callables: tasks ship these to worker processes by
# qualified name instead of serializing closure cells (see the note in
# repro.engine.rdd)

class _AssignChunkIds:
    """Map one partition of cell records to ``(chunk_id, (offset, value))``."""

    __slots__ = ("meta",)

    def __init__(self, meta):
        self.meta = meta

    def __call__(self, part):
        meta = self.meta
        part = list(part)
        if not part:
            return
        coords = np.array([record[0] for record in part], dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != meta.ndim:
            raise IngestError(
                f"expected {meta.ndim}-d coordinates, got shape "
                f"{coords.shape}"
            )
        values = np.array([record[1] for record in part])
        chunk_ids, offsets = mapper.locate(meta, coords)
        if values.dtype != object:
            # plain Python scalars, so the shuffle's columnar path can
            # pack the (offset, value) pairs into one record batch
            values = values.tolist()
        for chunk_id, offset, value in zip(chunk_ids, offsets, values):
            yield int(chunk_id), (int(offset), value)


class _BuildChunk:
    """Assemble one chunk from its grouped ``(offset, value)`` pairs."""

    __slots__ = ("meta",)

    def __init__(self, meta):
        self.meta = meta

    def __call__(self, pairs):
        offsets = np.fromiter((p[0] for p in pairs), dtype=np.int64,
                              count=len(pairs))
        values = np.array([p[1] for p in pairs], dtype=self.meta.dtype)
        return Chunk.from_sparse(self.meta.cells_per_chunk, offsets,
                                 values)


def array_rdd_from_cell_rdd(context, cell_rdd, meta: ArrayMetadata,
                            num_partitions=None) -> ArrayRDD:
    """Build an ArrayRDD from an engine RDD of ``(coords, value)`` records.

    The pipeline maps each record to ``(chunk_id, (offset, value))``,
    shuffles by chunk ID, and assembles one chunk per group — the
    map-then-reduce creation path of Section III-A.
    """
    if num_partitions is None:
        num_partitions = context.default_parallelism
    partitioner = HashPartitioner(num_partitions)
    chunks = (
        cell_rdd.map_partitions(_AssignChunkIds(meta))
        .group_by_key(partitioner=partitioner)
        .map_values(_BuildChunk(meta))
    )
    chunks.partitioner = partitioner
    return ArrayRDD(chunks, meta, context)


def array_rdd_from_records(context, records, meta: ArrayMetadata,
                           num_partitions=None) -> ArrayRDD:
    """Driver-side convenience: ingest an iterable of ``(coords, value)``."""
    if num_partitions is None:
        num_partitions = context.default_parallelism
    cell_rdd = context.parallelize(list(records), num_partitions)
    return array_rdd_from_cell_rdd(context, cell_rdd, meta, num_partitions)


def generate_array_rdd(context, meta: ArrayMetadata, partition_cells,
                       num_partitions: int) -> ArrayRDD:
    """Ingest from a generator: ``partition_cells(i)`` yields cell records.

    Large synthetic datasets use this so they are born distributed and
    never pass through the driver as one list.
    """
    cell_rdd = context.generate(num_partitions, partition_cells)
    return array_rdd_from_cell_rdd(context, cell_rdd, meta, num_partitions)
