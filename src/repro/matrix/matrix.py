"""SpangleMatrix: a two-dimensional ArrayRDD with block semantics.

A matrix is an ArrayRDD whose chunks are rectangular blocks. Zero is
treated as invalid (Section IV-A), so the bitmask *is* the sparsity
structure: matrix kernels skip work wherever bits are unset, and the
memory accounting below is what Fig. 10's feasibility story rides on.

Row index is dimension 0 (fastest in the chunk-ID numbering), column is
dimension 1; a block's chunk ID is ``row_block + col_block * grid_rows``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.array_rdd import ArrayRDD
from repro.core.chunk import Chunk, ChunkMode
from repro.core.ingest import chunk_pieces
from repro.core.metadata import ArrayMetadata
from repro.core.reshape import permute_axes
from repro.errors import ArrayError, ShapeMismatchError
from repro.matrix.offsets import encode_static
from repro.matrix.vector import SpangleVector


def _matvec_partial(data, out_axis, n_out, block_shape, grid_rows, part):
    """The matvec task: a partition's blocks contract the vector
    ``data`` into one partial of length ``n_out`` (``M × v`` for
    ``out_axis`` 0, ``vᵀ × M`` for 1). It is bound to the vector and
    the block geometry, never to the matrix."""
    out = np.zeros(n_out)
    for chunk_id, chunk in part:
        if chunk.valid_count == 0:
            continue
        origin = (chunk_id % grid_rows * block_shape[0],
                  chunk_id // grid_rows * block_shape[1])
        out0, in0 = origin[out_axis], origin[1 - out_axis]
        out_block = block_shape[out_axis]
        in_block = block_shape[1 - out_axis]
        v_slice = data[in0:in0 + in_block]
        out_len = min(out_block, n_out - out0)
        if chunk.density < 0.05:   # gather/scatter a sparse block
            offsets = chunk.indices()
            local = (offsets % block_shape[0], offsets // block_shape[0])
            contrib = np.bincount(
                local[out_axis],
                weights=chunk.values() * v_slice[local[1 - out_axis]],
                minlength=out_block,
            )
        else:
            block = chunk.to_dense(0).reshape(block_shape, order="F")
            if v_slice.size < in_block:
                padded = np.zeros(in_block)
                padded[:v_slice.size] = v_slice
                v_slice = padded
            contrib = (block @ v_slice if out_axis == 0
                       else v_slice @ block)
        out[out0:out0 + out_len] += contrib[:out_len]
    return [out]


class SpangleMatrix:
    """A distributed matrix over (chunk_id, block) records."""

    def __init__(self, array: ArrayRDD):
        if array.meta.ndim != 2:
            raise ShapeMismatchError(
                f"a matrix must be 2-D, got {array.meta.ndim}-D"
            )
        self.array = array

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_numpy(cls, context, dense, block_shape,
                   sparse_zeros: bool = True, num_partitions=None,
                   mode: ChunkMode = None) -> "SpangleMatrix":
        """Chunk a dense 2-D array; zeros become invalid by default."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeMismatchError("from_numpy expects a 2-D array")
        valid = (dense != 0) if sparse_zeros else None
        return cls(ArrayRDD.from_numpy(
            context, dense, block_shape, valid=valid,
            num_partitions=num_partitions, mode=mode,
            dim_names=("row", "col")))

    @classmethod
    def from_coo(cls, context, rows, cols, values, shape, block_shape,
                 num_partitions=None) -> "SpangleMatrix":
        """Build from coordinate lists (vectorized — no Python loop/cell)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not rows.size == cols.size == values.size:
            raise ShapeMismatchError("rows/cols/values length mismatch")
        meta = ArrayMetadata(shape, block_shape, dim_names=("row", "col"))
        coords = np.stack([rows, cols], axis=1)
        records = [(cid, Chunk.from_sparse(meta.cells_per_chunk, *piece))
                   for cid, piece in chunk_pieces(meta, coords, values)]
        array = ArrayRDD.from_chunks(context, records, meta,
                                     num_partitions)
        return cls(array)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def context(self):
        return self.array.context

    @property
    def meta(self) -> ArrayMetadata:
        return self.array.meta

    @property
    def shape(self) -> tuple:
        return self.meta.shape

    @property
    def block_shape(self) -> tuple:
        return self.meta.chunk_shape

    @property
    def grid_rows(self) -> int:
        return self.meta.chunk_grid[0]

    @property
    def grid_cols(self) -> int:
        return self.meta.chunk_grid[1]

    def row_block_of(self, chunk_id: int) -> int:
        return chunk_id % self.grid_rows

    def col_block_of(self, chunk_id: int) -> int:
        return chunk_id // self.grid_rows

    def chunk_id_of(self, row_block: int, col_block: int) -> int:
        return row_block + col_block * self.grid_rows

    def nnz(self) -> int:
        return self.array.count_valid()

    def memory_bytes(self) -> int:
        return self.array.memory_bytes()

    def cache(self) -> "SpangleMatrix":
        self.array.cache()
        return self

    def materialize(self) -> "SpangleMatrix":
        self.array.materialize()
        return self

    def explain(self) -> str:
        """The pending plan (see :meth:`ArrayRDD.explain`)."""
        return self.array.explain()

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        values, _valid = self.array.collect_dense(fill=0.0)
        return values

    def block_as_ndarray(self, chunk) -> np.ndarray:
        """A chunk's payload as a dense (block_rows, block_cols) array."""
        return chunk.to_dense(0).reshape(self.block_shape, order="F")

    def optimize_static(self) -> "SpangleMatrix":
        """Swap very sparse blocks' bitmasks for offset arrays.

        Section V-A-4's conversion rule: applies only where the offset
        array is the smaller structure, and is meant for matrices that
        are rarely updated (training data, graph structure).
        """
        out = self.array.rdd.map_values(encode_static)
        out.partitioner = self.array.rdd.partitioner
        return SpangleMatrix(ArrayRDD(out, self.meta, self.context))

    # ------------------------------------------------------------------
    # matrix-vector kernels
    # ------------------------------------------------------------------

    def dot_vector(self, vector: SpangleVector) -> SpangleVector:
        """``M × v`` → column vector of length n_rows.

        The vector is broadcast; every partition accumulates a partial
        result vector which the driver sums (a tree-aggregate pattern,
        one task per partition, no shuffle of matrix blocks).
        """
        if vector.orientation != "col":
            raise ShapeMismatchError(
                "M x v needs a column vector; transpose it first"
            )
        if vector.size != self.shape[1]:
            raise ShapeMismatchError(
                f"matrix has {self.shape[1]} columns but vector has "
                f"{vector.size} entries"
            )
        return self._matvec(vector)

    def vector_dot(self, vector: SpangleVector) -> SpangleVector:
        """``vᵀ × M`` → row vector of length n_cols.

        With *opt2* the caller never physically transposes anything: a
        column vector's ``.T`` flips metadata and this kernel reads the
        same buffer.
        """
        if vector.orientation != "row":
            raise ShapeMismatchError(
                "v^T x M needs a row vector; transpose it first"
            )
        if vector.size != self.shape[0]:
            raise ShapeMismatchError(
                f"matrix has {self.shape[0]} rows but vector has "
                f"{vector.size} entries"
            )
        return self._matvec(vector)

    def _matvec(self, vector: SpangleVector) -> SpangleVector:
        """The one matvec kernel: a column vector contracts the blocks'
        columns into rows (``M × v``), a row vector their rows into
        columns (``vᵀ × M``); one partial per partition, summed on the
        driver."""
        out_axis = 0 if vector.orientation == "col" else 1
        pieces = self.array.rdd.map_partitions(partial(
            _matvec_partial, vector.data, out_axis, self.shape[out_axis],
            self.block_shape, self.grid_rows)).collect()
        result = np.zeros(self.shape[out_axis])
        for piece in pieces:
            result += piece
        return SpangleVector(result, vector.orientation)

    # ------------------------------------------------------------------
    # matrix-matrix operations
    # ------------------------------------------------------------------

    def multiply(self, other: "SpangleMatrix") -> "SpangleMatrix":
        """Distributed block matmul; see :mod:`repro.matrix.multiply`."""
        from repro.matrix.multiply import block_matmul

        return block_matmul(self, other)

    def gram(self) -> "SpangleMatrix":
        """``Mᵀ × M`` without materializing the transpose."""
        from repro.matrix.multiply import gram_matmul

        return gram_matmul(self)

    def add(self, other: "SpangleMatrix") -> "SpangleMatrix":
        from repro.matrix.elementwise import add

        return add(self, other)

    def subtract(self, other: "SpangleMatrix") -> "SpangleMatrix":
        from repro.matrix.elementwise import subtract

        return subtract(self, other)

    def hadamard(self, other: "SpangleMatrix") -> "SpangleMatrix":
        from repro.matrix.elementwise import hadamard

        return hadamard(self, other)

    def scale(self, scalar: float) -> "SpangleMatrix":
        if scalar == 0:
            raise ArrayError(
                "scaling by zero would invalidate every cell; build an "
                "empty matrix explicitly instead"
            )
        return SpangleMatrix(self.array.map_values(
            partial(np.multiply, scalar)))

    def transpose(self) -> "SpangleMatrix":
        """Physical distributed transpose: :func:`permute_axes` moves
        every valid cell, stored zeros included, to its transposed block
        in one shuffle.

        This is the expensive operation the paper's *opt1* avoids for
        SGD (Section VI-C) by rewriting Mᵀz as (zᵀM)ᵀ.
        """
        return SpangleMatrix(permute_axes(self.array, (1, 0)))

    def __repr__(self) -> str:
        return (
            f"SpangleMatrix(shape={self.shape}, "
            f"blocks={self.block_shape})"
        )

