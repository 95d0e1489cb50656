"""BitmaskGraph: an unweighted graph as pure bitmask blocks (Section VI-B).

The paper's observation: in the PageRank decomposition A = A' ∘ w, the
matrix A' is a connectivity matrix — every entry is 0 or 1 — so a chunk
needs *no payload at all*: the bitmask (one bit per potential edge) or,
for super-sparse blocks, the edge offset list, is the entire chunk. An
edge costs one bit instead of an eight-byte value.

Convention (Section VI-B): rows are destination vertices, columns are
source vertices; entry (i, j) set means an edge j → i.
"""

from __future__ import annotations

import numpy as np

from repro.bitmask import Bitmask
from repro.core import mapper
from repro.core.metadata import ArrayMetadata
from repro.engine import HashPartitioner
from repro.engine.partitioner import NnzBalancedPartitioner
from repro.errors import ArrayError, CoordinateError, ShapeMismatchError
from repro.matrix.offsets import bitmask_bytes, offset_array_bytes


class _BitmaskBlock:
    """One adjacency block stored as a flat bitmask."""

    __slots__ = ("mask",)

    def __init__(self, mask: Bitmask):
        self.mask = mask

    @property
    def nbytes(self) -> int:
        return self.mask.nbytes

    @property
    def edge_count(self) -> int:
        return self.mask.count()

    def edge_offsets(self) -> np.ndarray:
        return self.mask.indices()


class _OffsetBlock:
    """One adjacency block stored as edge offsets (super-sparse)."""

    __slots__ = ("offsets", "num_cells")

    def __init__(self, offsets: np.ndarray, num_cells: int):
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.num_cells = num_cells

    @property
    def nbytes(self) -> int:
        return int(self.offsets.nbytes)

    @property
    def edge_count(self) -> int:
        return int(self.offsets.size)

    def edge_offsets(self) -> np.ndarray:
        return self.offsets


class EdgeList:
    """One partition's adjacency as global ``(row, col)`` vertex pairs.

    Rows are destinations, columns sources; int32 whenever the vertex
    ids fit, so an edge costs 8 bytes. Blocks follow partition order and
    keep their ascending offsets, so every row meets its edges in
    ascending-column order and a sequential scatter over the list is
    deterministic for a given placement.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: np.ndarray, cols: np.ndarray):
        self.rows = rows
        self.cols = cols

    @property
    def nbytes(self) -> int:
        return int(self.rows.nbytes) + int(self.cols.nbytes)


class _PartitionEdges:
    """Per-partition build task: adjacency blocks → one :class:`EdgeList`.

    A module-level class so process-backend tasks pickle it by
    reference. The only place block offsets are decoded into vertex ids.
    """

    __slots__ = ("block", "grid_rows", "dtype")

    def __init__(self, block: int, grid_rows: int, dtype):
        self.block = block
        self.grid_rows = grid_rows
        self.dtype = dtype

    def __call__(self, part):
        block = self.block
        rows = [np.zeros(0, dtype=self.dtype)]
        cols = [np.zeros(0, dtype=self.dtype)]
        for chunk_id, adjacency in part:
            offsets = adjacency.edge_offsets()
            rb, cb = chunk_id % self.grid_rows, chunk_id // self.grid_rows
            rows.append((rb * block + offsets % block).astype(self.dtype))
            cols.append((cb * block + offsets // block).astype(self.dtype))
        return [EdgeList(np.concatenate(rows), np.concatenate(cols))]


class BitmaskGraph:
    """A directed graph as blocks of an N×N boolean adjacency matrix.

    ``mode`` picks the block encoding: ``"sparse"`` keeps flat bitmasks,
    ``"super_sparse"`` keeps offset lists, ``"auto"`` chooses per block
    by size (the paper applies sparse to Enron/Epinions/Twitter and
    super-sparse to LiveJournal).
    """

    def __init__(self, rdd, meta: ArrayMetadata, out_degrees: np.ndarray,
                 context):
        self.rdd = rdd
        self.meta = meta
        self.out_degrees = out_degrees
        self.context = context
        self._edge_rdd = None

    @classmethod
    def from_edges(cls, context, edges, num_vertices: int,
                   block_size: int = 1024, num_partitions=None,
                   mode: str = "auto",
                   balance: str = "hash") -> "BitmaskGraph":
        """Build from ``(src, dst)`` pairs (arrays or iterable).

        Self-loops are kept; duplicate edges collapse (a bit is a bit).
        ``balance="nnz"`` places blocks so per-partition *edge counts*
        balance (greedy LPT over the blocks' edge counts) instead of
        hashing block IDs — on a power-law graph the hash placement can
        strand most edges on one executor.
        """
        if mode not in ("auto", "sparse", "super_sparse"):
            raise ArrayError(f"unknown graph mode {mode!r}")
        if balance not in ("hash", "nnz"):
            raise ArrayError(f"unknown balance policy {balance!r}; "
                             f"use 'hash' or 'nnz'")
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray)
                           else edges, dtype=np.int64)
        if edges.shape == (0,):
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ShapeMismatchError("edges must be an (m, 2) array")
        if edges.size and (edges.min() < 0
                           or edges.max() >= num_vertices):
            raise CoordinateError(
                f"vertex ids out of range [0, {num_vertices})"
            )
        src = edges[:, 0]
        dst = edges[:, 1]
        block_size = min(block_size, num_vertices)
        meta = ArrayMetadata((num_vertices, num_vertices),
                             (block_size, block_size),
                             dim_names=("dst", "src"), dtype=np.bool_)
        out_degrees = np.bincount(src, minlength=num_vertices) \
                        .astype(np.float64)

        # rows = destination, cols = source
        coords = np.stack([dst, src], axis=1)
        records = [
            (cid, _encode_block(np.unique(offsets), meta.cells_per_chunk,
                                mode))
            for cid, offsets in mapper.runs_by_chunk(
                *mapper.locate(meta, coords))]
        if num_partitions is None:
            num_partitions = context.default_parallelism
        if balance == "nnz" and records:
            weights = {cid: float(block.edge_count)
                       for cid, block in records}
            partitioner = NnzBalancedPartitioner.from_weights(
                weights, num_partitions)
            stats = getattr(context, "nnz_stats", None)
            if stats is not None:
                stats.record("graph-load",
                             partitioner.partition_loads(weights))
        else:
            partitioner = HashPartitioner(num_partitions)
        rdd = context.parallelize(records, num_partitions,
                                  partitioner=partitioner)
        rdd.partitioner = partitioner
        return cls(rdd, meta, out_degrees, context)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.meta.shape[0]

    def num_edges(self) -> int:
        return self.rdd.map(lambda kv: kv[1].edge_count).fold(
            0, lambda a, b: a + b)

    def memory_bytes(self) -> int:
        """Adjacency footprint — the one-bit-per-edge claim lives here."""
        return self.rdd.map(lambda kv: kv[1].nbytes).fold(
            0, lambda a, b: a + b)

    def cache(self) -> "BitmaskGraph":
        self.rdd.cache()
        return self

    def edge_lists(self):
        """The cached per-partition :class:`EdgeList` twin of the blocks.

        Built lazily (one pass, no sort) and kept cached: iterative
        consumers scatter over constant global vertex ids instead of
        re-deriving ``row = off % block`` every power iteration.
        """
        if self._edge_rdd is None:
            dtype = np.int32 if self.num_vertices <= 2 ** 31 else np.int64
            self._edge_rdd = self.rdd.map_partitions(_PartitionEdges(
                self.meta.chunk_shape[0], self.meta.chunk_grid[0],
                dtype)).cache()
        return self._edge_rdd

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``y = A' @ x``: sum x over in-edges, no multiplications.

        Because every stored entry is exactly 1, the kernel is a gather
        plus a scatter-add — the payload-free benefit of the bitmask
        representation: one ``np.add.at`` per partition over its cached
        edge list, then the driver sums the partition partials.
        """
        if x.size != self.num_vertices:
            raise ShapeMismatchError(
                f"vector length {x.size} != vertex count "
                f"{self.num_vertices}"
            )
        n = self.num_vertices

        def scatter(part):
            partial = np.zeros(n)
            for edges in part:
                np.add.at(partial, edges.rows, x.take(edges.cols))
            return [partial]

        result = np.zeros(n)
        for piece in self.edge_lists().map_partitions(scatter).collect():
            result += piece
        return result

    def to_dense(self) -> np.ndarray:
        """Dense boolean adjacency (tests only — O(N^2) memory)."""
        out = np.zeros(self.meta.shape, dtype=bool)
        for edges in self.edge_lists().collect():
            out[edges.rows, edges.cols] = True
        return out

    def __repr__(self) -> str:
        return (
            f"BitmaskGraph(vertices={self.num_vertices}, "
            f"block={self.meta.chunk_shape[0]})"
        )


def _encode_block(offsets: np.ndarray, cells: int, mode: str):
    if mode == "sparse":
        return _BitmaskBlock(Bitmask.from_indices(cells, offsets))
    if mode == "super_sparse":
        return _OffsetBlock(offsets, cells)
    # auto: pick whichever structure is smaller for this block
    if offset_array_bytes(offsets.size) < bitmask_bytes(cells):
        return _OffsetBlock(offsets, cells)
    return _BitmaskBlock(Bitmask.from_indices(cells, offsets))
