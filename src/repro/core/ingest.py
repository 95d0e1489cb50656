"""Ingest pipeline: cell records → chunks → ArrayRDD (Section III-A).

Spangle ingests data (CSV, NetCDF) by assigning every cell a chunk ID
(Algorithm 1), grouping cells with equal IDs, and building payloads and
bitmasks — all as one pipeline. Empty chunks are never created.

Every operator that moves cells to new chunks runs that pipeline as
:func:`cells_to_chunks`: one ``(chunk_id, (offsets, values))`` piece per
source partition and destination chunk, one shuffle by chunk ID, one
chunk built from its pieces in arrival order. Record ingest, ``rechunk``
and ``permute_axes`` (so the matrix transpose) are its callers.

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


def chunk_pieces(meta: ArrayMetadata, coords, values):
    """One ``(chunk_id, (offsets, values))`` piece per chunk of ``meta``
    that the ``(n, ndim)`` global ``coords`` land in, cells in input
    order; a cell outside the array raises :class:`CoordinateError`."""
    for chunk_id, offsets, run in mapper.runs_by_chunk(
            *mapper.locate(meta, coords), values):
        yield chunk_id, (offsets, run)


class _RecordPieces:
    """A partition of ``(coords, value)`` records as ``meta.dtype`` pieces."""

    __slots__ = ("meta",)

    def __init__(self, meta):
        self.meta = meta

    def __call__(self, part):
        meta = self.meta
        part = list(part)
        if not part:
            return ()
        coords = np.array([record[0] for record in part], dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != meta.ndim:
            raise IngestError(
                f"expected {meta.ndim}-d coordinates, got shape "
                f"{coords.shape}"
            )
        values = np.array([record[1] for record in part], dtype=meta.dtype)
        return chunk_pieces(meta, coords, values)


class _ChunkFromPieces:
    """One chunk from its grouped ``(offsets, values)`` pieces."""

    __slots__ = ("num_cells",)

    def __init__(self, num_cells):
        self.num_cells = num_cells

    def __call__(self, grouped):
        return Chunk.from_sparse(self.num_cells,
                                 np.concatenate([p[0] for p in grouped]),
                                 np.concatenate([p[1] for p in grouped]))


def cells_to_chunks(piece_rdd, meta: ArrayMetadata,
                    num_partitions: int) -> ArrayRDD:
    """The ArrayRDD whose chunks are built from ``piece_rdd``'s
    ``(chunk_id, (offsets, values))`` pieces: one shuffle by chunk ID
    into ``num_partitions`` hash partitions, then one chunk per ID."""
    partitioner = HashPartitioner(num_partitions)
    chunks = piece_rdd.group_by_key(partitioner=partitioner) \
        .map_values(_ChunkFromPieces(meta.cells_per_chunk))
    chunks.partitioner = partitioner
    return ArrayRDD(chunks, meta, piece_rdd.context)


def array_rdd_from_cell_rdd(context, cell_rdd, meta: ArrayMetadata,
                            num_partitions=None) -> ArrayRDD:
    """Build an ArrayRDD from an engine RDD of ``(coords, value)`` records.

    Each partition's records become pieces that
    :func:`cells_to_chunks` shuffles and builds — the map-then-reduce
    creation path of Section III-A.
    """
    if num_partitions is None:
        num_partitions = context.default_parallelism
    return cells_to_chunks(cell_rdd.map_partitions(_RecordPieces(meta)),
                           meta, num_partitions)


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
