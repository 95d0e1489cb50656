"""Distributed block matrix multiplication (Sections V-A-4 and VI-A).

One plan: each operand is placed by its contraction block index *k*
(:func:`k_partitioners`), co-numbered partitions are zipped into
partial products keyed by output block, and one shuffle gathers them.
A placement is free when the operand already carries it, which is the
paper's local join (Section VI-A): after :func:`prepare_local` a
product shuffles only in the gather. The paper reports this is what
lets Spangle survive the largest (Mawi) matrices.

Partial products are bitmask-gated: a pair of blocks is multiplied only
when both carry valid cells, and zero rows/columns never reach the
kernel.

Each block pair picks its own kernel from the two blocks' densities
(:class:`_BlockKernel`): the vectorized CSR join of :func:`_csr_join`
when both are below :data:`SPARSE_KERNEL_THRESHOLD`, the CSR×dense
scatter of :func:`_scatter_partial` when one is below
:data:`SCATTER_KERNEL_THRESHOLD`, dense BLAS otherwise. The gates are
module constants and the choice reads only the two blocks, so every
backend (serial, thread, process) runs the same arithmetic in the same
order.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.array_rdd import ArrayRDD
from repro.core.chunk import Chunk
from repro.core.metadata import ArrayMetadata
from repro.engine.partitioner import BlockPartitioner
from repro.errors import ShapeMismatchError
from repro.matrix.offsets import csc_from_offsets, csr_from_offsets


def _check_dims(left, right) -> None:
    if left.shape[1] != right.shape[0]:
        raise ShapeMismatchError(
            f"cannot multiply {left.shape} by {right.shape}"
        )
    if left.block_shape[1] != right.block_shape[0]:
        raise ShapeMismatchError(
            f"contraction block mismatch: left blocks are "
            f"{left.block_shape}, right blocks are {right.block_shape}"
        )


#: Density below which both blocks of a pair take the CSR join.
SPARSE_KERNEL_THRESHOLD = 0.02

#: Density below which one sparse block takes the CSR×dense scatter.
SCATTER_KERNEL_THRESHOLD = 0.1


class _COOPartial:
    """A partial product held as COO triples instead of a dense block.

    Hyper-sparse block pairs (the Hardesty/Mawi regime) would waste both
    time and memory on dense partials that are almost entirely zero;
    this keeps exactly the nonzero contributions. Merging with another
    partial (COO or dense) happens in :func:`_merge_partials`.
    """

    __slots__ = ("rows", "cols", "vals", "shape")

    def __init__(self, rows, cols, vals, shape):
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.shape = shape

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    @property
    def nbytes(self) -> int:
        return int(self.rows.nbytes + self.cols.nbytes
                   + self.vals.nbytes)


def _merge_partials(a, b):
    """Sum two partial products of the same output block."""
    if isinstance(a, _COOPartial) and isinstance(b, _COOPartial):
        return _COOPartial(
            np.concatenate([a.rows, b.rows]),
            np.concatenate([a.cols, b.cols]),
            np.concatenate([a.vals, b.vals]),
            a.shape,
        )
    if isinstance(a, _COOPartial):
        a = a.to_dense()
    if isinstance(b, _COOPartial):
        b = b.to_dense()
    return a + b


def _partial_to_dense(partial) -> np.ndarray:
    if isinstance(partial, _COOPartial):
        return partial.to_dense()
    return partial


def _csr_join(a_rows, a_ks, a_vals, b_ks, b_cols, b_vals, shape):
    """Join two sparse operands on the contraction index.

    ``a`` contributes (row, k, value), ``b`` contributes (k, col,
    value); returns the COO partial of their product, or None when no
    k-index is shared (no arithmetic at all — the COO analogue of the
    bitmask AND in Fig. 5).

    A vectorized row-pointer join with no per-k Python loop. Both
    operands sort by k (stable); the b side's sorted k column *is*
    a sparse CSR pointer structure, and the two searchsorteds below are
    its ``indptr`` lookups (``csr_row_pointers`` evaluated only at the
    k values the a side actually holds). Every a entry then expands
    against its b run with pure index arithmetic.

    Pairs emit in a fixed order — shared k ascending, a entries in
    stable-sorted offset order, each against all matching b entries —
    so downstream summation sees the same floats in the same sequence
    as a per-k outer-product loop would produce.
    """
    a_order = np.argsort(a_ks, kind="stable")
    b_order = np.argsort(b_ks, kind="stable")
    a_ks_sorted = a_ks[a_order]
    b_ks_sorted = b_ks[b_order]
    b_lo = np.searchsorted(b_ks_sorted, a_ks_sorted, side="left")
    b_hi = np.searchsorted(b_ks_sorted, a_ks_sorted, side="right")
    reps = b_hi - b_lo
    matched = reps > 0
    if not matched.any():
        return None
    a_idx = a_order[matched]
    b_lo = b_lo[matched]
    reps = reps[matched]
    total = int(reps.sum())
    # pair p belongs to kept a entry a_expand[p]; its offset inside that
    # entry's b run is p minus the run's start position
    a_expand = np.repeat(np.arange(a_idx.size), reps)
    run_starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(reps)[:-1]])
    pos_in_run = np.arange(total) - run_starts[a_expand]
    b_expand = b_order[np.repeat(b_lo, reps) + pos_in_run]
    a_expand = a_idx[a_expand]
    return _COOPartial(
        a_rows[a_expand], b_cols[b_expand],
        a_vals[a_expand] * b_vals[b_expand], shape,
    )


def _sparse_partial(left_chunk, right_chunk, left_rows, contraction,
                    right_cols):
    """Sparse product of two sparse blocks; None when no k-index
    matches."""
    a_off = left_chunk.indices()
    b_off = right_chunk.indices()
    return _csr_join(
        a_off % left_rows, a_off // left_rows, left_chunk.values(),
        b_off % contraction, b_off // contraction, right_chunk.values(),
        (left_rows, right_cols),
    )


def _scatter_partial(left_chunk, right_chunk, left_shape, right_shape,
                     sparse_on_left):
    """CSR×dense (or dense×CSC) partial: one-sided sparsity.

    The sparse side decomposes into row-pointer form straight from its
    offset encoding (:func:`csr_from_offsets` /
    :func:`csc_from_offsets`), then each live output row is one
    segmented sum over gathered dense rows — no k loop, no densify of
    the sparse side, and no work for empty rows.
    """
    m, k_dim = left_shape
    n = right_shape[1]
    if sparse_on_left:
        b = right_chunk.to_dense(0).reshape(right_shape, order="F")
        indptr, ks, vals = csr_from_offsets(
            left_chunk.indices(), left_chunk.values(), m)
        out = np.zeros((m, n))
        if vals.size:
            contrib = vals[:, None] * b[ks, :]
            live = np.nonzero(np.diff(indptr))[0]
            out[live] = np.add.reduceat(contrib, indptr[live], axis=0)
        return out if out.any() else None
    a = left_chunk.to_dense(0).reshape(left_shape, order="F")
    # group the right side by output column: its CSC view is free
    # because sorted offsets are already column-major
    indptr, ks, vals = csc_from_offsets(
        right_chunk.indices(), right_chunk.values(), k_dim, n)
    out_t = np.zeros((n, m))
    if vals.size:
        contrib = vals[:, None] * a[:, ks].T
        live = np.nonzero(np.diff(indptr))[0]
        out_t[live] = np.add.reduceat(contrib, indptr[live], axis=0)
    out = out_t.T
    return out if out.any() else None


class _BlockKernel:
    """The per-block-pair kernel, shipped to workers: the kernel each
    pair runs follows from the two blocks' densities and the module's
    gates alone."""

    __slots__ = ("left_shape", "right_shape")

    def __init__(self, left_shape, right_shape):
        self.left_shape = left_shape
        self.right_shape = right_shape

    def __call__(self, left_chunk, right_chunk):
        if left_chunk.valid_count == 0 or right_chunk.valid_count == 0:
            return None
        da = left_chunk.density
        db = right_chunk.density
        if da < SPARSE_KERNEL_THRESHOLD and db < SPARSE_KERNEL_THRESHOLD:
            return _sparse_partial(
                left_chunk, right_chunk, self.left_shape[0],
                self.left_shape[1], self.right_shape[1])
        if min(da, db) < SCATTER_KERNEL_THRESHOLD:
            return _scatter_partial(left_chunk, right_chunk,
                                    self.left_shape, self.right_shape,
                                    sparse_on_left=da <= db)
        a = left_chunk.to_dense(0).reshape(self.left_shape, order="F")
        b = right_chunk.to_dense(0).reshape(self.right_shape,
                                            order="F")
        partial = a @ b
        if not partial.any():
            return None
        return partial


def _to_chunks(records):
    out = []
    for chunk_id, partial in records:
        flat = _partial_to_dense(partial).ravel(order="F")
        chunk = Chunk.from_dense(flat, flat != 0)
        if chunk.valid_count:
            out.append((chunk_id, chunk))
    return out


def _assemble(context, partials_rdd, meta) -> ArrayRDD:
    """(chunk_id, partial sum) records → (chunk_id, Chunk) records.

    The gather upstream keys partials by output chunk ID (``rb + cb *
    out_grid_rows``, an int the columnar shuffle packs) and places them
    by hash; chunks are built in place, so the gather's partitioner is
    the product's and nothing moves again.
    """
    chunks = partials_rdd.map_partitions(_to_chunks,
                                         preserves_partitioning=True)
    return ArrayRDD(chunks, meta, context)


def k_partitioners(left, right, num_partitions: int):
    """The contraction-index placements of a product's two operands.

    Left blocks are placed by their column-block index, right blocks by
    their row-block index, both modulo ``num_partitions``, so the
    contraction index *k* of both operands lands in the same partition.
    Placements are :class:`BlockPartitioner` values: two compare equal
    only when they put every block in the same partition, so
    ``partition_by`` skips exactly the shuffles that would move nothing.
    """
    return (BlockPartitioner(num_partitions, divisor=left.grid_rows),
            BlockPartitioner(num_partitions, modulus=right.grid_rows))


def prepare_local(left, right, num_partitions=None):
    """Pre-place both operands by their contraction index (one-off
    shuffles).

    Returns ``(left_prepared, right_prepared)``. Every later product of
    the pair then runs without shuffling its inputs — the local join of
    Section VI-A.
    """
    from repro.matrix.matrix import SpangleMatrix

    if num_partitions is None:
        num_partitions = left.array.rdd.num_partitions
    placements = k_partitioners(left, right, num_partitions)
    return tuple(
        SpangleMatrix(ArrayRDD(operand.array.rdd.partition_by(placement),
                               operand.meta, operand.context))
        for operand, placement in zip((left, right), placements))


def _by_k_partitions(left, right) -> int:
    """An operand already placed by its contraction index keeps its
    partition count (left first); otherwise the larger count."""
    for role, operand in enumerate((left, right)):
        rdd = operand.array.rdd
        if rdd.partitioner == k_partitioners(
                left, right, rdd.num_partitions)[role]:
            return rdd.num_partitions
    return max(left.array.rdd.num_partitions,
               right.array.rdd.num_partitions)


def _zip_by_k(kernel, left_rows, right_rows, out_rows, left_records,
              right_records):
    """The zip of :func:`block_matmul`: co-placed blocks group by *k* in
    first-seen order, left blocks before right, and every pair's
    partial is keyed by its output chunk ID."""
    groups = {}
    for cid, chunk in left_records:
        groups.setdefault(cid // left_rows, ([], []))[0].append(
            (cid % left_rows, chunk))
    for cid, chunk in right_records:
        group = groups.get(cid % right_rows)
        if group is not None:
            group[1].append((cid // right_rows, chunk))
    out = []
    for left_blocks, right_blocks in groups.values():
        for rb, left_chunk in left_blocks:
            for cb, right_chunk in right_blocks:
                product = kernel(left_chunk, right_chunk)
                if product is not None:
                    out.append((rb + cb * out_rows, product))
    return out


def block_matmul(left, right):
    """``left × right`` as a SpangleMatrix.

    Places both operands by *k*, zips co-numbered partitions into
    partials keyed by output chunk ID and gathers them; like every
    engine RDD the plan runs only when an action forces it.
    """
    from repro.matrix.matrix import SpangleMatrix

    _check_dims(left, right)
    meta = ArrayMetadata((left.shape[0], right.shape[1]),
                         (left.block_shape[0], right.block_shape[1]),
                         dim_names=("row", "col"))
    left_part, right_part = k_partitioners(
        left, right, _by_k_partitions(left, right))
    zipper = partial(_zip_by_k, _BlockKernel(tuple(left.block_shape),
                                             tuple(right.block_shape)),
                     left.grid_rows, right.grid_rows, meta.chunk_grid[0])
    partials = left.array.rdd.partition_by(left_part).zip_partitions(
        right.array.rdd.partition_by(right_part), zipper)
    summed = partials.reduce_by_key(_merge_partials)
    return SpangleMatrix(_assemble(left.context, summed, meta))


class _GramKernel:
    """The per-group kernel of :func:`gram_matmul`, shipped to workers
    with the block shape and output grid, never the matrix. A group whose
    live blocks are all below :data:`SPARSE_KERNEL_THRESHOLD` joins
    their COO forms; any other group densifies each block once and runs
    BLAS per pair.
    """

    def __init__(self, block_shape, out_grid_rows):
        self.block_shape = block_shape
        self.out_grid_rows = out_grid_rows

    def __call__(self, record):
        _k, blocks = record
        block_rows, block_cols = self.block_shape
        out_shape = (block_cols, block_cols)
        out = []
        live = [(cb, chunk) for cb, chunk in blocks if chunk.valid_count]
        if all(chunk.density < SPARSE_KERNEL_THRESHOLD
               for _cb, chunk in live):
            # a block (k × c) transposes by swapping its offset
            # decomposition; only matching k-indices join
            coo = {}
            for cb, chunk in live:
                offsets = chunk.indices()
                coo[cb] = (offsets % block_rows,       # k-index
                           offsets // block_rows,      # column
                           chunk.values())
            for c1, (a_ks, a_cols, a_vals) in coo.items():
                for c2, (b_ks, b_cols, b_vals) in coo.items():
                    partial = _csr_join(a_cols, a_ks, a_vals, b_ks,
                                        b_cols, b_vals, out_shape)
                    if partial is not None:
                        out.append((c1 + c2 * self.out_grid_rows,
                                    partial))
            return out
        dense = {cb: chunk.to_dense(0).reshape(self.block_shape,
                                               order="F")
                 for cb, chunk in live}
        for c1, a in dense.items():
            at = a.T
            for c2, b in dense.items():
                partial = at @ b
                if partial.any():
                    out.append((c1 + c2 * self.out_grid_rows, partial))
        return out


def _by_row_block(grid_rows, kv):
    """``(k, (c, block))`` for the block at row-block k, column c."""
    return kv[0] % grid_rows, (kv[0] // grid_rows, kv[1])


def gram_matmul(matrix):
    """``Mᵀ × M`` directly from M's blocks — no transpose materialized.

    Blocks sharing a row-block index k meet in one group; each pair
    (k,c1),(k,c2) contributes ``block(k,c1)ᵀ @ block(k,c2)`` to output
    block (c1,c2). One shuffle to group by k, one to gather.
    """
    from repro.matrix.matrix import SpangleMatrix

    n_cols = matrix.shape[1]
    block_cols = matrix.block_shape[1]
    meta = ArrayMetadata((n_cols, n_cols), (block_cols, block_cols),
                         dim_names=("row", "col"))
    by_k = matrix.array.rdd.map(
        partial(_by_row_block, matrix.grid_rows)).group_by_key()
    kernel = _GramKernel(tuple(matrix.block_shape), meta.chunk_grid[0])
    summed = by_k.flat_map(kernel).reduce_by_key(_merge_partials)
    return SpangleMatrix(_assemble(matrix.context, summed, meta))
