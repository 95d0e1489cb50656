"""Cell updates: upserting records into an existing ArrayRDD.

Arrays evolve — new observations arrive, bad retrievals are corrected,
regions are re-processed. RDDs are immutable, so an update produces a
new ArrayRDD; the machinery routes the incoming cells to their chunks
(Algorithm 1), joins them against the existing chunks, and resolves
conflicts per cell:

- ``"replace"`` — the incoming value wins;
- ``"keep"`` — the existing value wins (insert-only);
- ``"sum"`` — values add (accumulation ingest);
- a callable ``resolver(old_values, new_values) -> values``.

Cells can also be *deleted* (made null) by region or predicate.
"""

from __future__ import annotations

import operator
from functools import partial

import numpy as np

from repro.core import mapper
from repro.core.array_rdd import ArrayRDD, has_cells
from repro.core.chunk import Chunk
from repro.engine import HashPartitioner
from repro.errors import ArrayError


def _replace(_old, new):
    return new


def _keep(old, _new):
    return old


def _resolve_resolver(how):
    if callable(how):
        return how
    resolvers = {"replace": _replace, "keep": _keep, "sum": operator.add}
    if how in resolvers:
        return resolvers[how]
    raise ArrayError(
        f"unknown resolver {how!r}; use 'replace'/'keep'/'sum' or a "
        f"callable"
    )


def merge_cells(array: ArrayRDD, records, how="replace",
                fill=0.0) -> ArrayRDD:
    """Upsert ``(coords, value)`` records into an array.

    New cells become valid; cells present on both sides go through the
    resolver. Returns a new ArrayRDD over the same metadata.
    """
    resolver = _resolve_resolver(how)
    meta = array.meta
    records = list(records)
    cells_per_chunk = meta.cells_per_chunk
    if not records:
        return array

    coords = np.array([record[0] for record in records], dtype=np.int64)
    values = np.array([record[1] for record in records],
                      dtype=np.float64)
    updates = {}
    for chunk_id, chunk_offsets, chunk_values in mapper.runs_by_chunk(
            *mapper.locate(meta, coords), values):
        if np.unique(chunk_offsets).size != chunk_offsets.size:
            raise ArrayError("duplicate coordinates in one update batch")
        updates[chunk_id] = (chunk_offsets, chunk_values)

    num_partitions = array.rdd.num_partitions
    partitioner = array.rdd.partitioner \
        or HashPartitioner(num_partitions)
    update_rdd = array.context.parallelize(
        list(updates.items()), num_partitions, partitioner=partitioner)
    update_rdd.partitioner = partitioner
    placed = array.rdd.partition_by(partitioner)
    merged = placed.cogroup(update_rdd, partitioner=partitioner) \
        .map_values(partial(_apply_updates, resolver, cells_per_chunk,
                            fill)) \
        .filter(has_cells)
    merged.partitioner = partitioner
    return ArrayRDD(merged, meta, array.context)


def _apply_updates(resolver, cells_per_chunk, fill, pair):
    """A cogrouped ``(existing, incoming)`` pair merged into one chunk."""
    existing, incoming = pair
    if not incoming:
        return existing[0]
    upd_offsets, upd_values = incoming[0]
    if not existing:
        return Chunk.from_sparse(cells_per_chunk, upd_offsets, upd_values)
    chunk = existing[0]
    dense = chunk.to_dense(fill)
    valid = chunk.valid_bools()
    both = valid[upd_offsets]
    resolved = upd_values.copy()
    if both.any():
        resolved[both] = resolver(dense[upd_offsets[both]],
                                  upd_values[both])
    dense[upd_offsets] = resolved
    valid[upd_offsets] = True
    return Chunk.from_dense(dense, valid)


def _erase(meta, affected, lo, hi, _index, part):
    """A partition's chunks with the cells inside ``[lo, hi]`` erased."""
    for chunk_id, chunk in part:
        if chunk_id not in affected:
            yield chunk_id, chunk
            continue
        offsets = chunk.indices()
        keep = ~mapper.range_mask_for_chunk(meta, chunk_id, lo, hi)[offsets]
        if not keep.any():
            continue         # the box holds every valid cell
        if not keep.all():   # else the box misses them: pass through
            chunk = Chunk.from_sparse(chunk.num_cells, offsets[keep],
                                      chunk.values()[keep])
        yield chunk_id, chunk


def _negated(predicate, values):
    return ~np.asarray(predicate(values), dtype=bool)


def delete_region(array: ArrayRDD, lo, hi) -> ArrayRDD:
    """Invalidate every cell inside the closed box [lo, hi]."""
    meta = array.meta
    affected = set(mapper.chunk_ids_in_range(meta, lo, hi))
    out = array.rdd.map_partitions_with_index(
        partial(_erase, meta, affected, lo, hi),
        preserves_partitioning=True)
    return ArrayRDD(out, meta, array.context)


def delete_where(array: ArrayRDD, predicate) -> ArrayRDD:
    """Invalidate cells whose value satisfies ``predicate(values)``."""
    return array.filter(partial(_negated, predicate))
