"""Per-record reference for the group-by aggregation shuffle.

:func:`aggregate_cells` is ``aggregate_by``/``window_aggregate`` the
way they ran before their keys and states became columns: the array's
chunks are built, each chunk folds into one ``(key, state)`` tuple per
output cell, a plain dict-fold ``reduce_by_key`` merges the tuples, and
every merged state is evaluated one at a time. A builtin's per-chunk
states come from its own grouped formula below, not from the
aggregator, so a change there shows too. Its output records must
pickle byte for byte like the columnar path's.
"""

from operator import itemgetter

import numpy as np

from repro.core import mapper
from repro.core.aggregates import (
    AvgAggregator,
    CountAggregator,
    MaxAggregator,
    MinAggregator,
    SumAggregator,
)
from repro.core.array_rdd import ArrayRDD
from repro.core.chunk import Chunk
from repro.engine import HashPartitioner
from repro.engine.partitioner import BlockPartitioner


def _sums(values, starts):
    return np.add.reduceat(values.astype(float), starts).tolist()


def _counts(values, starts):
    return np.diff(starts, append=values.size).tolist()


#: the builtins' grouped states as lists of Python scalars (exact types)
GROUPED = {
    SumAggregator: _sums,
    CountAggregator: _counts,
    MinAggregator: lambda values, starts: np.minimum.reduceat(
        values, starts).astype(float).tolist(),
    MaxAggregator: lambda values, starts: np.maximum.reduceat(
        values, starts).astype(float).tolist(),
    AvgAggregator: lambda values, starts: list(zip(
        _sums(values, starts), _counts(values, starts))),
}


class _CellPartials:
    """Each chunk's valid cells, one ``(key, state)`` tuple per output
    cell key: the chunk's keys sorted stably, one state per key run."""

    def __init__(self, meta, out_meta, axes, window, agg):
        self.meta = meta
        self.out_meta = out_meta
        self.axes = tuple(axes)
        self.window = tuple(window)
        self.agg = agg

    def _keys(self, chunk_id, offsets):
        """Algorithm 1 on the output metadata, one cell at a time."""
        meta, out = self.meta, self.out_meta
        coords = mapper.coords_for_offsets_array(meta, chunk_id, offsets)
        keys = []
        for cell in coords.tolist():
            grid = [(cell[axis] - meta.starts[axis]) // self.window[j]
                    for j, axis in enumerate(self.axes)]
            chunk_id_out, offset = 0, 0
            chunk_stride, offset_stride = 1, 1
            for j, pos in enumerate(grid):
                chunk_id_out += pos // out.chunk_shape[j] * chunk_stride
                offset += pos % out.chunk_shape[j] * offset_stride
                chunk_stride *= out.chunk_grid[j]
                offset_stride *= out.chunk_shape[j]
            keys.append(chunk_id_out * out.cells_per_chunk + offset)
        return np.array(keys, dtype=np.int64)

    def __call__(self, part):
        records = []
        for chunk_id, chunk in part:
            offsets = chunk.indices()
            if offsets.size == 0:
                continue
            keys = self._keys(chunk_id, offsets)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            grouped = GROUPED.get(type(self.agg),
                                  self.agg.accumulate_groups)
            states = grouped(chunk.values()[order], starts)
            records.extend(zip(keys[starts].tolist(), states))
        return records


class _BuildChunks:
    """Evaluate every merged state and build the partition's chunks."""

    def __init__(self, meta, agg):
        self.meta = meta
        self.agg = agg

    def __call__(self, part):
        if not part:
            return
        keys = np.fromiter(map(itemgetter(0), part), dtype=np.int64,
                           count=len(part))
        values = list(map(self.agg.evaluate, map(itemgetter(1), part)))
        if None in values:
            keys = keys[[value is not None for value in values]]
            values = [value for value in values if value is not None]
        cells_per_chunk = self.meta.cells_per_chunk
        for chunk_id, offsets, cell_values in mapper.runs_by_chunk(
                *np.divmod(keys, cells_per_chunk),
                np.array(values, dtype=np.float64)):
            yield chunk_id, Chunk.from_sparse(cells_per_chunk, offsets,
                                              cell_values)


def aggregate_cells(array, out_meta, agg, axes, window, num_partitions):
    """The per-record form of :func:`repro.core.array_rdd.aggregate_cells`
    (same arguments, same output array)."""
    cells_per_chunk = out_meta.cells_per_chunk
    by_chunk = BlockPartitioner(num_partitions, divisor=cells_per_chunk)
    chunks = array.rdd \
        .map_partitions(_CellPartials(array.meta, out_meta, axes, window,
                                      agg)) \
        .reduce_by_key(agg.merge, partitioner=by_chunk) \
        .map_partitions(_BuildChunks(out_meta, agg))
    chunks.partitioner = HashPartitioner(num_partitions)
    return ArrayRDD(chunks, out_meta, array.context)
