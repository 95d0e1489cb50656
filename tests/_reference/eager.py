"""Eager per-chunk reference for ingest and the fused operator layer.

:meth:`EagerArray.from_numpy` cuts a numpy array one chunk at a time;
``ArrayRDD.from_numpy``'s one vectorised cut must give byte-identical
chunks. The operators replay ArrayRDD operators one at a time over
driver-side chunks with per-chunk primitives — :func:`map_values`,
:func:`filter_chunk`, :func:`and_mask` and :func:`elementwise` below,
and :meth:`Chunk.repack <repro.core.chunk.Chunk.repack>` — building a
fresh chunk per operator, in the order written, and dropping chunks
left with no valid cell. A
fused ChunkPlan pass, rewrites included, must be byte-identical to this
chain in every chunk mode.

:class:`EagerArray` mirrors the ArrayRDD operator surface, so one test
lambda (``lambda a: a.subarray(lo, hi) * 2.0``) drives both.
"""

import numpy as np

from repro.bitmask import Bitmask, HierarchicalBitmask
from repro.core import mapper
from repro.core.array_rdd import _chunk_selection
from repro.core.chunk import Chunk, ChunkMode, choose_mode
from repro.errors import ArrayError


def chunk_from_region(meta, chunk_id: int, array, valid, mode):
    """Cut one chunk out of a dense array; None when it has no valid cell."""
    sel, local_shape = _chunk_selection(meta, chunk_id)
    region_valid = valid[sel]
    if not region_valid.any():
        return None
    padded_values = np.zeros(meta.chunk_shape, dtype=array.dtype)
    padded_valid = np.zeros(meta.chunk_shape, dtype=bool)
    clip = tuple(slice(0, n) for n in local_shape)
    padded_values[clip] = array[sel]
    padded_valid[clip] = region_valid
    return Chunk.from_dense(padded_values.ravel(order="F"),
                            padded_valid.ravel(order="F"), mode=mode)


def map_values(chunk, func, mode=None) -> Chunk:
    """Apply a vectorized function to the valid values only."""
    new_values = np.asarray(func(chunk.values()))
    if new_values.shape != chunk.values().shape:
        raise ArrayError(
            "map_values function must preserve the value count"
        )
    return Chunk.from_sparse(chunk.num_cells, chunk.indices(), new_values,
                             mode=mode or chunk.mode)


def filter_chunk(chunk, predicate, mode=None) -> Chunk:
    """Keep valid cells where ``predicate(values)`` is True.

    ``predicate`` receives the vector of valid values and returns a
    boolean vector; failing cells become invalid (their bits drop to
    zero and, in compressed modes, their payload slots vanish).
    """
    values = chunk.values()
    keep = np.asarray(predicate(values), dtype=bool)
    if keep.shape != values.shape:
        raise ArrayError("filter predicate must return one bool per value")
    if mode is None:
        density = int(keep.sum()) / chunk.num_cells \
            if chunk.num_cells else 0.0
        mode = choose_mode(density)
    keep_cells = np.zeros(chunk.num_cells, dtype=bool)
    keep_cells[chunk.indices()[keep]] = True
    return build_from_bools(chunk.num_cells, keep_cells,
                             values[keep], mode)


def and_mask(chunk, other_mask: Bitmask, mode=None) -> Chunk:
    """Restrict validity to ``mask AND other_mask`` (Fig. 4a/4b), as
    Subarray's virtual bitmask and the MaskRDD do; a chunk the mask
    removes nothing from comes back as itself."""
    if other_mask.num_bits != chunk.num_cells:
        raise ArrayError(f"mask length {other_mask.num_bits} != chunk "
                         f"cells {chunk.num_cells}")
    combined = chunk.flat_mask() & other_mask
    if combined == chunk.flat_mask():
        return chunk
    keep = combined.to_bools()
    if mode is None:
        mode = choose_mode(combined.count() / chunk.num_cells)
    # payload order == ascending offsets, so indexing the keep mask by
    # the valid offsets selects a compressed chunk's surviving slots
    compact = chunk.payload[keep if chunk.mode is ChunkMode.DENSE
                            else keep[chunk.indices()]]
    return build_from_bools(chunk.num_cells, keep, compact, mode)


def build_from_bools(num_cells: int, keep: np.ndarray,
                     compact_values: np.ndarray, mode) -> Chunk:
    """A chunk from a keep-mask and its values in ascending-offset
    order, unvalidated: ``keep`` has exactly that many set bits."""
    mask = Bitmask.from_bools(keep)
    if mode is ChunkMode.DENSE:
        payload = np.zeros(num_cells, dtype=compact_values.dtype)
        payload[keep] = compact_values
        return Chunk(mode, payload, mask, num_cells)
    if mode is ChunkMode.SUPER_SPARSE:
        mask = HierarchicalBitmask.from_bitmask(mask)
    return Chunk(mode, compact_values, mask, num_cells)


def _values_at_offsets(chunk, offsets: np.ndarray) -> np.ndarray:
    """Values at the given valid offsets (all must be valid)."""
    if chunk.mode is ChunkMode.DENSE:
        return chunk.payload[offsets]
    slots = np.searchsorted(chunk.indices(), offsets)
    return chunk.payload[slots]


def elementwise(left, right, op, how: str = "and", fill=0) -> Chunk:
    """Combine two chunks cell-by-cell.

    ``how="and"`` keeps cells valid on *both* sides (the bitwise-AND
    fast path of Fig. 5 — invalid pairs are never computed);
    ``how="or"`` keeps cells valid on either side, with ``fill``
    standing in for the missing operand.
    """
    if right.num_cells != left.num_cells:
        raise ArrayError(
            f"chunk size mismatch: {left.num_cells} vs "
            f"{right.num_cells}"
        )
    left_mask = left.flat_mask()
    right_mask = right.flat_mask()
    if how == "and":
        offsets = (left_mask & right_mask).indices()
        result = op(_values_at_offsets(left, offsets),
                    _values_at_offsets(right, offsets))
        return Chunk.from_sparse(left.num_cells, offsets, result)
    if how == "or":
        offsets = (left_mask | right_mask).indices()
        result = op(left.to_dense(fill)[offsets],
                    right.to_dense(fill)[offsets])
        return Chunk.from_sparse(left.num_cells, offsets, result)
    raise ArrayError(f"unknown join mode {how!r}; use 'and' or 'or'")


class EagerArray:
    """``{chunk_id: Chunk}`` plus metadata, transformed eagerly."""

    def __init__(self, chunks: dict, meta, repacked: int = 0):
        self.chunks = chunks
        self.meta = meta
        #: chunks whose mode the last ``repack()`` changed
        self.repacked = repacked

    @classmethod
    def from_numpy(cls, meta, array, valid=None, mode=None) -> "EagerArray":
        """``ArrayRDD.from_numpy``'s chunks, cut one chunk at a time."""
        array = np.asarray(array)
        valid = np.ones(array.shape, dtype=bool) if valid is None \
            else np.asarray(valid, dtype=bool)
        if np.issubdtype(array.dtype, np.floating):
            valid = valid & ~np.isnan(array)
        chunks = {}
        for chunk_id in range(meta.num_chunks):
            chunk = chunk_from_region(meta, chunk_id, array, valid, mode)
            if chunk is not None:
                chunks[chunk_id] = chunk
        return cls(chunks, meta)

    @classmethod
    def of(cls, array) -> "EagerArray":
        """The collected chunks of an ArrayRDD."""
        return cls(dict(array.rdd.collect()), array.meta)

    def _each(self, transform) -> "EagerArray":
        out = {}
        for chunk_id, chunk in self.chunks.items():
            new = transform(chunk_id, chunk)
            if new is not None and new.valid_count > 0:
                out[chunk_id] = new
        return EagerArray(out, self.meta)

    # -- operators ------------------------------------------------------

    def map_values(self, func) -> "EagerArray":
        return self._each(lambda _cid, chunk: map_values(chunk, func))

    def filter(self, predicate) -> "EagerArray":
        return self._each(
            lambda _cid, chunk: filter_chunk(chunk, predicate))

    def repack(self) -> "EagerArray":
        changed = 0
        out = {}
        for chunk_id, chunk in self.chunks.items():
            out[chunk_id], moved = chunk.repack()
            changed += int(moved)
        return EagerArray(out, self.meta, repacked=changed)

    def subarray(self, lo, hi) -> "EagerArray":
        meta = self.meta
        wanted = set(mapper.chunk_ids_in_range(meta, lo, hi))

        def restrict(chunk_id, chunk):
            if chunk_id not in wanted:
                return None
            if mapper.chunk_fully_inside(meta, chunk_id, lo, hi):
                return chunk
            inside = mapper.range_mask_for_chunk(meta, chunk_id, lo, hi)
            return and_mask(chunk, Bitmask.from_bools(inside))

        return self._each(restrict)

    def partition_by(self, _partitioner) -> "EagerArray":
        # placement moves chunks between partitions, never changes one
        return EagerArray(dict(self.chunks), self.meta)

    def repartition(self, _num_partitions) -> "EagerArray":
        return self.partition_by(None)

    def mask_apply(self, masks: dict) -> "EagerArray":
        """AND every chunk with its ``{chunk_id: Bitmask}`` entry; chunks
        without one vanish (the MaskRDD reconciliation join)."""
        return self._each(
            lambda cid, chunk: and_mask(chunk, masks[cid])
            if cid in masks else None)

    def combine(self, other: "EagerArray", op, how: str = "and",
                fill=0) -> "EagerArray":
        left, right = self.chunks, other.chunks
        out = {}
        if how == "and":
            for chunk_id in left.keys() & right.keys():
                out[chunk_id] = elementwise(
                    left[chunk_id], right[chunk_id], op, how="and")
        else:
            empty = Chunk.empty(self.meta.cells_per_chunk,
                                dtype=self.meta.dtype)
            for chunk_id in left.keys() | right.keys():
                out[chunk_id] = elementwise(
                    left.get(chunk_id, empty), right.get(chunk_id, empty),
                    op, how="or", fill=fill)
        return EagerArray(out, self.meta)._each(
            lambda _cid, chunk: chunk)

    # -- arithmetic (null-propagating, like ArrayRDD) ---------------------

    def _scalar(self, op, scalar, reflected) -> "EagerArray":
        if reflected:
            return self.map_values(lambda values: op(scalar, values))
        return self.map_values(lambda values: op(values, scalar))

    def _binary(self, other, op):
        if isinstance(other, EagerArray):
            return self.combine(other, op, how="and")
        return self._scalar(op, other, False)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._scalar(np.add, other, True)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._scalar(np.subtract, other, True)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return self._scalar(np.multiply, other, True)

    def __truediv__(self, other):
        return self._binary(other, np.divide)

    def __rtruediv__(self, other):
        return self._scalar(np.divide, other, True)

    def __pow__(self, other):
        return self._binary(other, np.power)

    def __rpow__(self, other):
        return self._scalar(np.power, other, True)

    def __neg__(self):
        return self.map_values(np.negative)

    def __abs__(self):
        return self.map_values(np.abs)

    # -- results ----------------------------------------------------------

    def count_valid(self) -> int:
        return sum(chunk.valid_count for chunk in self.chunks.values())

    def collect_dense(self, fill=np.nan):
        """``(values, valid)`` numpy arrays, as ``ArrayRDD.collect_dense``."""
        meta = self.meta
        values = np.full(meta.shape, fill,
                         dtype=np.result_type(meta.dtype, type(fill))
                         if fill is not np.nan else np.float64)
        valid = np.zeros(meta.shape, dtype=bool)
        for chunk_id, chunk in self.chunks.items():
            sel, local_shape = _chunk_selection(meta, chunk_id)
            clip = tuple(slice(0, n) for n in local_shape)
            values[sel] = chunk.to_dense(fill).reshape(
                meta.chunk_shape, order="F")[clip]
            valid[sel] = chunk.valid_bools().reshape(
                meta.chunk_shape, order="F")[clip]
        return values, valid
