"""Offset-array encoding: the COO-like alternative for static matrices.

Section V-A-4: for matrix computation Spangle may swap a chunk's bitmask
for an *offset array* — a flat list of one-dimensional offsets, similar
to the coordinate-list (COO) format but with multi-dimensional
coordinates already collapsed. The swap happens only when the offset
array is smaller than the bitmask (i.e. the chunk is extremely sparse),
and only for *static* matrices that are rarely updated (training data,
the PageRank adjacency structure).
"""

from __future__ import annotations

import numpy as np

from repro.core.chunk import Chunk, ChunkMode
from repro.engine.batches import canonical_dtype
from repro.errors import ArrayError


class OffsetArrayChunk:
    """A chunk encoded as (offsets, values) instead of (bitmask, values).

    Duck-types the read-side of :class:`Chunk` (``values``, ``indices``,
    ``to_dense``, ``valid_count``, ``nbytes``...) so the matrix kernels
    accept either encoding. It offers no column codec: shuffles and
    spill files carry it pickled per record.
    """

    __slots__ = ("_offsets", "payload", "num_cells")

    mode = "offset_array"

    def __init__(self, num_cells: int, offsets: np.ndarray,
                 values: np.ndarray):
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        values = np.ascontiguousarray(values)
        if offsets.size != values.size:
            raise ArrayError(
                f"{offsets.size} offsets but {values.size} values"
            )
        if offsets.size and (offsets.min() < 0
                             or offsets.max() >= num_cells):
            raise ArrayError(f"offsets out of range [0, {num_cells})")
        order = np.argsort(offsets, kind="stable")
        self._offsets = offsets[order]
        self.payload = values[order]
        self.num_cells = num_cells

    def __setstate__(self, state) -> None:
        # re-intern the unpickled dtypes, as Chunk does, so a chunk read
        # back from a spill file or another process pickles identically
        # to one built in place
        for name, value in state[1].items():
            setattr(self, name, canonical_dtype(value)
                    if type(value) is np.ndarray else value)

    @classmethod
    def from_chunk(cls, chunk: Chunk) -> "OffsetArrayChunk":
        return cls(chunk.num_cells, chunk.indices(), chunk.values())

    def to_chunk(self, mode: ChunkMode = None) -> Chunk:
        return Chunk.from_sparse(self.num_cells, self._offsets,
                                 self.payload, mode=mode)

    # ------------------------------------------------------------------
    # Chunk-compatible read API
    # ------------------------------------------------------------------

    @property
    def valid_count(self) -> int:
        return int(self.payload.size)

    @property
    def density(self) -> float:
        if self.num_cells == 0:
            return 0.0
        return self.valid_count / self.num_cells

    @property
    def dtype(self):
        return self.payload.dtype

    @property
    def nbytes(self) -> int:
        return int(self._offsets.nbytes) + int(self.payload.nbytes)

    def indices(self) -> np.ndarray:
        return self._offsets

    def values(self) -> np.ndarray:
        return self.payload

    def to_dense(self, fill=0) -> np.ndarray:
        out = np.full(self.num_cells, fill, dtype=self.payload.dtype)
        out[self._offsets] = self.payload
        return out

    def get(self, offset: int):
        if not 0 <= offset < self.num_cells:
            raise ArrayError(
                f"offset {offset} out of range [0, {self.num_cells})"
            )
        slot = np.searchsorted(self._offsets, offset)
        if slot < self._offsets.size and self._offsets[slot] == offset:
            return self.payload[slot]
        return None

    def __repr__(self) -> str:
        return (
            f"OffsetArrayChunk(cells={self.num_cells}, "
            f"nnz={self.valid_count}, {self.nbytes}B)"
        )


def bitmask_bytes(num_cells: int) -> int:
    """Flat bitmask size for a chunk of ``num_cells`` cells."""
    return ((num_cells + 63) // 64) * 8


def offset_array_bytes(nnz: int) -> int:
    return nnz * 8


def should_use_offsets(chunk) -> bool:
    """The paper's conversion rule: swap only when it shrinks the chunk."""
    return (
        offset_array_bytes(chunk.valid_count)
        < bitmask_bytes(chunk.num_cells)
    )


def encode_static(chunk):
    """Re-encode a static chunk with whichever structure is smaller.

    Returns the chunk unchanged when the bitmask is already the compact
    choice; otherwise an :class:`OffsetArrayChunk`.
    """
    if isinstance(chunk, OffsetArrayChunk):
        return chunk
    if should_use_offsets(chunk):
        return OffsetArrayChunk.from_chunk(chunk)
    return chunk


# ----------------------------------------------------------------------
# CSR construction: row pointers grown from the offset encoding
# ----------------------------------------------------------------------
#
# A chunk's offsets are Fortran-order (``offset = row + col·num_rows``),
# so *sorted offsets are already column-major*: the CSC decomposition of
# a block falls out of the encoding with one searchsorted, and the CSR
# decomposition needs only a stable sort by row. The matmul partial-
# product kernels consume these directly.

def csr_row_pointers(sorted_rows: np.ndarray, num_rows: int
                     ) -> np.ndarray:
    """CSR ``indptr`` from row indices already sorted ascending."""
    return np.searchsorted(sorted_rows, np.arange(num_rows + 1)) \
             .astype(np.int64, copy=False)


def csr_from_offsets(offsets: np.ndarray, values, num_rows: int):
    """Row-major ``(indptr, cols, vals)`` of one block.

    The stable sort keeps each row's entries in ascending-column order —
    the same order a column-major scan visits them — so kernels that sum
    a row sequentially reproduce the offset-order summation bit for bit.
    """
    rows = offsets % num_rows
    cols = offsets // num_rows
    order = np.argsort(rows, kind="stable")
    indptr = csr_row_pointers(rows[order], num_rows)
    return (indptr, cols[order],
            values[order] if values is not None else None)


def csc_from_offsets(offsets: np.ndarray, values, num_rows: int,
                     num_cols: int):
    """Column-major ``(indptr, rows, vals)`` of one block — free:
    ascending offsets are ascending (col, row) pairs, and the column
    boundaries sit at offset multiples of ``num_rows``."""
    indptr = np.searchsorted(
        offsets, np.arange(num_cols + 1, dtype=np.int64) * num_rows
    ).astype(np.int64, copy=False)
    return indptr, offsets % num_rows, values


class CSRBlock:
    """Row-pointer form ``(indptr, cols)`` of one payload-free block,
    grown from its edge offsets by :func:`csr_from_offsets`."""

    __slots__ = ("indptr", "cols", "num_rows")

    def __init__(self, indptr: np.ndarray, cols: np.ndarray,
                 num_rows: int):
        self.indptr = indptr
        self.cols = cols
        self.num_rows = num_rows

    @classmethod
    def from_offsets(cls, offsets: np.ndarray, num_rows: int
                     ) -> "CSRBlock":
        indptr, cols, _ = csr_from_offsets(offsets, None, num_rows)
        return cls(indptr, cols, num_rows)

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes) + int(self.cols.nbytes)
