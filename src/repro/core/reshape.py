"""Layout transformations: re-chunking and axis permutation.

Chunk geometry is a first-class performance knob in the paper (all of
Fig. 8/9 is about it), so a production array system needs to *change*
it: :func:`rechunk` redistributes cells into a new chunk interval, and
:func:`permute_axes` reorders dimensions (the general form of the
matrix transpose). Both move cells through the ingest pipeline's one
piece shuffle (:func:`~repro.core.ingest.cells_to_chunks`): every
source chunk's valid cells are located under the new metadata and
leave as one ``(offsets, values)`` piece per destination chunk; all
coordinate arithmetic is vectorized.
"""

from __future__ import annotations

from repro.core import mapper
from repro.core.array_rdd import ArrayRDD
from repro.core.ingest import cells_to_chunks, chunk_pieces
from repro.core.metadata import ArrayMetadata
from repro.errors import ArrayError


class _MovedPieces:
    """One partition of chunks as pieces under ``new_meta``: each valid
    cell's coordinates, columns reordered by ``order``, located anew."""

    __slots__ = ("old_meta", "new_meta", "order")

    def __init__(self, old_meta, new_meta, order):
        self.old_meta = old_meta
        self.new_meta = new_meta
        self.order = order

    def __call__(self, part):
        for chunk_id, chunk in part:
            offsets = chunk.indices()
            if offsets.size:
                coords = mapper.coords_for_offsets_array(
                    self.old_meta, chunk_id, offsets)
                yield from chunk_pieces(self.new_meta,
                                        coords[:, self.order],
                                        chunk.values())


def _move_cells(array: ArrayRDD, order, chunk_shape,
                num_partitions=None) -> ArrayRDD:
    """``array`` with new axis ``i`` taken from old axis ``order[i]``,
    cut into ``chunk_shape``: every valid cell moves to its new chunk."""
    meta = array.meta
    order = list(order)
    new_meta = ArrayMetadata(
        tuple(meta.shape[a] for a in order), chunk_shape,
        starts=tuple(meta.starts[a] for a in order),
        dim_names=tuple(meta.dim_names[a] for a in order),
        dtype=meta.dtype, attribute=meta.attribute)
    if num_partitions is None:
        num_partitions = array.rdd.num_partitions
    return cells_to_chunks(
        array.rdd.map_partitions(_MovedPieces(meta, new_meta, order)),
        new_meta, num_partitions)


def rechunk(array: ArrayRDD, new_chunk_shape,
            num_partitions=None) -> ArrayRDD:
    """Redistribute an array into a new chunk interval.

    One shuffle; cell values and validity are preserved exactly. Use it
    to move between scan-friendly large chunks and update-friendly
    small ones (the Fig. 8/9 trade-off).
    """
    new_chunk_shape = tuple(int(c) for c in new_chunk_shape)
    if new_chunk_shape == array.meta.chunk_shape:
        return array
    return _move_cells(array, range(array.meta.ndim), new_chunk_shape,
                       num_partitions)


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
    return _move_cells(array, order,
                       tuple(meta.chunk_shape[a] for a in order),
                       num_partitions)
