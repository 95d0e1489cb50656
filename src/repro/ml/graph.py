"""BitmaskGraph: an unweighted graph as pure bitmask blocks (Section VI-B).

The paper's observation: in the PageRank decomposition A = A' ∘ w, the
matrix A' is a connectivity matrix — every entry is 0 or 1 — so a chunk
needs *no payload at all*: the bitmask (one bit per potential edge) or,
for super-sparse blocks, the edge offset list, is the entire chunk. An
edge costs one bit instead of an eight-byte value.

Each partition holds its edges once, as one :class:`EdgeList` that the
spmv scatters over; a block is a ``[lo, hi)`` slice of it (plus its
bitmask in sparse mode) and reports its paper form as ``nbytes``.

Convention (Section VI-B): rows are destination vertices, columns are
source vertices; entry (i, j) set means an edge j → i.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter

import numpy as np

from repro.bitmask import Bitmask
from repro.core import mapper
from repro.core.metadata import ArrayMetadata
from repro.engine.partitioner import HashPartitioner, NnzBalancedPartitioner
from repro.errors import ArrayError, CoordinateError, ShapeMismatchError
from repro.matrix.offsets import bitmask_bytes, offset_array_bytes


class EdgeList:
    """One partition's adjacency as global ``(row, col)`` vertex pairs:
    the one copy of its edges, which its blocks slice.

    Rows are destinations, columns sources; int32 whenever the vertex
    ids fit, so an edge costs 8 bytes. Blocks follow partition order and
    keep their ascending offsets, so a sequential scatter over the list
    is deterministic for a given placement.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: np.ndarray, cols: np.ndarray):
        self.rows, self.cols = rows, cols


class _OffsetBlock:
    """One adjacency block: the ``[lo, hi)`` slice of its partition's
    :class:`EdgeList`. Its paper form is the offset array (super-sparse,
    8 B per edge), which is what ``nbytes`` reports."""

    __slots__ = ("edges", "lo", "hi", "side")

    def __init__(self, edges: EdgeList, lo: int, hi: int, side: int):
        self.edges, self.lo, self.hi, self.side = edges, lo, hi, side

    @property
    def edge_count(self) -> int:
        return self.hi - self.lo

    @property
    def nbytes(self) -> int:
        return offset_array_bytes(self.edge_count)

    @property
    def resident_nbytes(self) -> int:
        """The slice this block holds, not the form it reports."""
        edges = self.edges
        return self.edge_count * (edges.rows.itemsize
                                  + edges.cols.itemsize)

    def edge_offsets(self) -> np.ndarray:
        """Ascending int64 in-block offsets (dimension 0 fastest)."""
        rows = self.edges.rows[self.lo:self.hi].astype(np.int64)
        cols = self.edges.cols[self.lo:self.hi].astype(np.int64)
        return rows % self.side + cols % self.side * self.side


class _BitmaskBlock(_OffsetBlock):
    """A sparse-mode block: the slice plus the flat bitmask the paper
    stores (one bit per potential edge), which ``nbytes`` reports."""

    __slots__ = ("mask",)

    def __init__(self, edges: EdgeList, lo: int, hi: int, side: int,
                 mask: Bitmask):
        super().__init__(edges, lo, hi, side)
        self.mask = mask

    @property
    def nbytes(self) -> int:
        return self.mask.nbytes

    @property
    def resident_nbytes(self) -> int:
        return super().resident_nbytes + self.mask.nbytes


def _partition_edges(part) -> list:
    """``[EdgeList]`` of one partition: all of its blocks slice one."""
    for _cid, block in part:
        return [block.edges]
    return []


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
        block_size = min(block_size, num_vertices)
        meta = ArrayMetadata((num_vertices, num_vertices),
                             (block_size, block_size),
                             dim_names=("dst", "src"), dtype=np.bool_)
        out_degrees = np.bincount(edges[:, 0], minlength=num_vertices) \
                        .astype(np.float64)
        runs = _unique_runs(meta, edges)
        if num_partitions is None:
            num_partitions = context.default_parallelism
        if balance == "nnz" and runs:
            weights = {cid: float(rows.size) for cid, rows, _cols in runs}
            partitioner = NnzBalancedPartitioner.from_weights(
                weights, num_partitions)
            stats = getattr(context, "nnz_stats", None)
            if stats is not None:
                stats.record("graph-load",
                             partitioner.partition_loads(weights))
        else:
            partitioner = HashPartitioner(num_partitions)
        # each partition's edges are written once, in the order
        # parallelize places its blocks; a block keeps its [lo, hi)
        parts = [[] for _ in range(partitioner.num_partitions)]
        for run in runs:
            parts[partitioner.partition(run[0])].append(run)
        records = []
        for part in filter(None, parts):
            cids, rows, cols = zip(*part)
            edges = EdgeList(np.concatenate(rows), np.concatenate(cols))
            bounds = np.cumsum([0, *map(len, rows)]).tolist()
            records += [(cid, _encode_block(edges, lo, hi, meta, mode))
                        for cid, lo, hi in zip(cids, bounds, bounds[1:])]
        rdd = context.parallelize(records, num_partitions,
                                  partitioner=partitioner)
        return cls(rdd, meta, out_degrees, context)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.meta.shape[0]

    def num_edges(self) -> int:
        return self.rdd.values().map(attrgetter("edge_count")).sum()

    def memory_bytes(self) -> int:
        """Adjacency footprint — the one-bit-per-edge claim lives here."""
        return self.rdd.values().map(attrgetter("nbytes")).sum()

    def cache(self) -> "BitmaskGraph":
        self.rdd.cache()
        return self

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``y = A' @ x``: sum x over in-edges, no multiplications.

        Because every stored entry is exactly 1, the kernel is a gather
        plus a scatter-add — the payload-free benefit of the bitmask
        representation: one ``np.add.at`` per partition over the edge
        list its blocks slice, then the driver sums the partials.
        """
        if x.size != self.num_vertices:
            raise ShapeMismatchError(
                f"vector length {x.size} != vertex count "
                f"{self.num_vertices}"
            )
        result = np.zeros(self.num_vertices)
        for piece in self.rdd.map_partitions(
                partial(_scatter, x)).collect():
            result += piece
        return result

    def to_dense(self) -> np.ndarray:
        """Dense boolean adjacency (tests only — O(N^2) memory)."""
        out = np.zeros(self.meta.shape, dtype=bool)
        for edges in self.rdd.map_partitions(_partition_edges).collect():
            out[edges.rows, edges.cols] = True
        return out

    def __repr__(self) -> str:
        return (
            f"BitmaskGraph(vertices={self.num_vertices}, "
            f"block={self.meta.chunk_shape[0]})"
        )


def _scatter(x, part):
    """``[A'_part @ x]``: one partition's in-edge sums of ``x``."""
    out = np.zeros(x.size)
    for edges in _partition_edges(part):
        np.add.at(out, edges.rows, x.take(edges.cols))
    return [out]


def _unique_runs(meta: ArrayMetadata, edges: np.ndarray) -> list:
    """``[(chunk_id, rows, cols)]``: the distinct edges cut by block,
    ascending by chunk ID, then offset. One sort of ``chunk_id ×
    cells_per_chunk + offset`` dedups every edge; each transient column
    is dropped as soon as the next one is built."""
    # rows = destination, cols = source
    keys, offsets = mapper.locate(meta, edges[:, ::-1])
    keys *= meta.cells_per_chunk
    keys += offsets
    del offsets
    keys.sort()
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys
    chunk_ids, offsets = np.divmod(keys, meta.cells_per_chunk)
    del keys
    side, grid = meta.chunk_shape[0], meta.chunk_grid[0]
    dtype = np.int32 if meta.shape[0] <= 2 ** 31 else np.int64
    rows = (chunk_ids % grid * side + offsets % side).astype(dtype)
    cols = (chunk_ids // grid * side + offsets // side).astype(dtype)
    del offsets
    return list(mapper.runs_by_chunk(chunk_ids, rows, cols))


def _encode_block(edges: EdgeList, lo: int, hi: int, meta: ArrayMetadata,
                  mode: str):
    block = _OffsetBlock(edges, lo, hi, meta.chunk_shape[0])
    cells = meta.cells_per_chunk
    # auto: pick whichever structure is smaller for this block
    smaller = offset_array_bytes(hi - lo) < bitmask_bytes(cells)
    if mode == "super_sparse" or (mode == "auto" and smaller):
        return block
    return _BitmaskBlock(edges, lo, hi, block.side,
                         Bitmask.from_indices(cells, block.edge_offsets()))
