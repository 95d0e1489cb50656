"""SpangleMatrix: a two-dimensional ArrayRDD with block semantics.

A matrix is an ArrayRDD whose chunks are rectangular blocks. Zero is
treated as invalid (Section IV-A), so the bitmask *is* the sparsity
structure: matrix kernels skip work wherever bits are unset, and the
memory accounting below is what Fig. 10's feasibility story rides on.

Row index is dimension 0 (fastest in the chunk-ID numbering), column is
dimension 1; a block's chunk ID is ``row_block + col_block * grid_rows``.
"""

from __future__ import annotations

import numpy as np

from repro.core import mapper
from repro.core.array_rdd import ArrayRDD
from repro.core.chunk import Chunk, ChunkMode
from repro.core.metadata import ArrayMetadata
from repro.engine import HashPartitioner
from repro.errors import ArrayError, ShapeMismatchError
from repro.matrix.offsets import encode_static
from repro.matrix.vector import SpangleVector


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
        records = [
            (cid, Chunk.from_sparse(meta.cells_per_chunk, offsets,
                                    cell_values))
            for cid, offsets, cell_values in mapper.runs_by_chunk(
                *mapper.locate(meta, coords), values)]
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
        n_rows = self.shape[0]
        block_rows, block_cols = self.block_shape
        grid_rows = self.grid_rows
        data = vector.data
        as_block = self.block_as_ndarray

        def partials(part):
            partial = np.zeros(n_rows)
            for chunk_id, chunk in part:
                if chunk.valid_count == 0:
                    continue
                rb = chunk_id % grid_rows
                cb = chunk_id // grid_rows
                r0 = rb * block_rows
                c0 = cb * block_cols
                v_slice = data[c0:c0 + block_cols]
                out_len = min(block_rows, n_rows - r0)
                if _prefer_sparse_kernel(chunk):
                    offsets = chunk.indices()
                    local_rows = offsets % block_rows
                    local_cols = offsets // block_rows
                    contrib = np.bincount(
                        local_rows,
                        weights=chunk.values() * v_slice[local_cols],
                        minlength=block_rows,
                    )
                else:
                    block = as_block(chunk)
                    if v_slice.size < block_cols:
                        padded = np.zeros(block_cols)
                        padded[:v_slice.size] = v_slice
                        v_slice = padded
                    contrib = block @ v_slice
                partial[r0:r0 + out_len] += contrib[:out_len]
            return [partial]

        pieces = self.array.rdd.map_partitions(partials).collect()
        result = np.zeros(n_rows)
        for piece in pieces:
            result += piece
        return SpangleVector(result, "col")

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
        n_cols = self.shape[1]
        block_rows, block_cols = self.block_shape
        grid_rows = self.grid_rows
        data = vector.data
        as_block = self.block_as_ndarray

        def partials(part):
            partial = np.zeros(n_cols)
            for chunk_id, chunk in part:
                if chunk.valid_count == 0:
                    continue
                rb = chunk_id % grid_rows
                cb = chunk_id // grid_rows
                r0 = rb * block_rows
                c0 = cb * block_cols
                v_slice = data[r0:r0 + block_rows]
                out_len = min(block_cols, n_cols - c0)
                if _prefer_sparse_kernel(chunk):
                    offsets = chunk.indices()
                    local_rows = offsets % block_rows
                    local_cols = offsets // block_rows
                    contrib = np.bincount(
                        local_cols,
                        weights=chunk.values() * v_slice[local_rows],
                        minlength=block_cols,
                    )
                else:
                    block = as_block(chunk)
                    if v_slice.size < block_rows:
                        padded = np.zeros(block_rows)
                        padded[:v_slice.size] = v_slice
                        v_slice = padded
                    contrib = v_slice @ block
                partial[c0:c0 + out_len] += contrib[:out_len]
            return [partial]

        pieces = self.array.rdd.map_partitions(partials).collect()
        result = np.zeros(n_cols)
        for piece in pieces:
            result += piece
        return SpangleVector(result, "row")

    # ------------------------------------------------------------------
    # matrix-matrix operations
    # ------------------------------------------------------------------

    def multiply(self, other: "SpangleMatrix",
                 local_join: bool = False) -> "SpangleMatrix":
        """Distributed block matmul; see :mod:`repro.matrix.multiply`."""
        from repro.matrix.multiply import block_matmul

        return block_matmul(self, other, local_join=local_join)

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
        return SpangleMatrix(self.array.map_values(lambda xs: xs * scalar))

    def transpose(self) -> "SpangleMatrix":
        """Physical distributed transpose (re-key + re-shuffle blocks).

        This is the expensive operation the paper's *opt1* avoids for
        SGD (Section VI-C) by rewriting Mᵀz as (zᵀM)ᵀ.
        """
        meta = self.meta
        grid_rows = self.grid_rows
        grid_cols = self.grid_cols
        block_rows, block_cols = self.block_shape

        def flip(record):
            chunk_id, chunk = record
            rb = chunk_id % grid_rows
            cb = chunk_id // grid_rows
            new_id = cb + rb * grid_cols
            block = chunk.to_dense(0).reshape(
                (block_rows, block_cols), order="F")
            flipped = block.T
            return new_id, Chunk.from_dense(
                flipped.ravel(order="F"),
                (flipped != 0).ravel(order="F"))

        rekeyed = self.array.rdd.map(flip)
        partitioner = HashPartitioner(self.array.rdd.num_partitions)
        shuffled = rekeyed.partition_by(partitioner)
        new_meta = meta.transposed().with_attribute(meta.attribute)
        return SpangleMatrix(ArrayRDD(shuffled, new_meta, self.context))

    def __repr__(self) -> str:
        return (
            f"SpangleMatrix(shape={self.shape}, "
            f"blocks={self.block_shape})"
        )


def _prefer_sparse_kernel(chunk) -> bool:
    """Use the gather/scatter kernel when the block is truly sparse."""
    return chunk.density < 0.05
