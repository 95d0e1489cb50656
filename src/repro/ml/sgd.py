"""Parallel mini-batch SGD machinery (Section VI-C).

Two ideas from the paper:

1. **Chunk IDs assigned in parallel** (Eq. 2): with ``nP`` partitions,
   partition ``pID`` numbers its local row-chunks ``rID = 0, 1, ...``
   and each chunk gets the globally unique ID

       C = nP · rID + pID

   — no coordination, no shuffle. IDs need not be consecutive, only
   unique.
2. **Shuffle-free sampling**: evaluated *in reverse*, the equation tells
   every partition which chunk IDs it owns (``C ≡ pID (mod nP)``), so at
   each SGD step every partition draws random local chunks and computes
   a partial gradient without any data movement; only the small gradient
   vectors meet at the driver.

Sample chunks stay resident in CSR form (:class:`SampleChunk`), so a
step's kernels do work proportional to the nonzeros it samples: each
partition scatters every picked chunk's ``eᵀ X`` straight into one
gradient vector (:meth:`SampleChunk.add_t_dot`) instead of building a
feature-length vector per chunk.
"""

from __future__ import annotations

import random
from functools import partial
from operator import attrgetter

import numpy as np

from repro.engine.partitioner import HashPartitioner
from repro.errors import ArrayError, ShapeMismatchError


class SampleChunk:
    """A block of training rows in CSR form plus their labels.

    The constructor takes COO triplets with ``row_local`` in
    ``[0, num_rows)``, stably sorts them by row when they are not
    already, and keeps only the row pointers: row ``r``'s entries are
    ``col[indptr[r]:indptr[r + 1]]`` / ``val[...]``, in their input
    order.
    """

    __slots__ = ("indptr", "col", "val", "labels", "num_rows")

    def __init__(self, row_local, col, val, labels, num_rows: int):
        rows = np.ascontiguousarray(row_local, dtype=np.int64)
        self.col = np.ascontiguousarray(col, dtype=np.int64)
        self.val = np.ascontiguousarray(val, dtype=np.float64)
        self.labels = np.ascontiguousarray(labels, dtype=np.float64)
        self.num_rows = num_rows
        if not rows.size == self.col.size == self.val.size:
            raise ShapeMismatchError("COO arrays must share a length")
        if self.labels.size != num_rows:
            raise ShapeMismatchError(
                f"{self.labels.size} labels for {num_rows} rows"
            )
        if (rows[1:] < rows[:-1]).any():
            order = np.argsort(rows, kind="stable")
            rows = rows[order]
            self.col = self.col[order]
            self.val = self.val[order]
        if rows.size and not 0 <= rows[0] <= rows[-1] < num_rows:
            bad = rows[0] if rows[0] < 0 else rows[-1]
            raise ShapeMismatchError(
                f"row {bad} outside [0, {num_rows})")
        self.indptr = np.searchsorted(rows, np.arange(num_rows + 1))

    @property
    def nnz(self) -> int:
        return int(self.val.size)

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.col.nbytes
                   + self.val.nbytes + self.labels.nbytes)

    @property
    def row_local(self) -> np.ndarray:
        """Each stored entry's row, derived from ``indptr``."""
        return np.repeat(np.arange(self.num_rows), np.diff(self.indptr))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``X_block @ x`` — one gather + segmented sum over the rows."""
        nnz = self.val.size
        products = np.empty(nnz + 1)
        np.multiply(self.val, x[self.col], out=products[:nnz])
        # trailing empty rows start at nnz: the pad keeps them in bounds
        products[nnz] = 0.0
        starts = self.indptr[:-1]
        scores = np.add.reduceat(products, starts)
        # reduceat yields products[start] for an empty row
        scores[starts == self.indptr[1:]] = 0.0
        return scores

    def add_t_dot(self, out: np.ndarray, e: np.ndarray) -> np.ndarray:
        """``out += eᵀ X_block`` in place — the *opt1* kernel.

        Never forms Xᵀ and touches only this chunk's stored columns of
        ``out``, so a step costs its sampled nonzeros, not the feature
        count. Returns ``out``.
        """
        e_expanded = np.repeat(e, np.diff(self.indptr))
        np.add.at(out, self.col, self.val * e_expanded)
        return out

    def t_dot(self, e: np.ndarray, num_features: int) -> np.ndarray:
        """``eᵀ X_block`` as a fresh ``num_features`` vector."""
        return self.add_t_dot(np.zeros(num_features), e)

    def t_dot_materialized(self, e: np.ndarray,
                           num_features: int) -> np.ndarray:
        """``Xᵀ e`` through an explicitly transposed copy (no opt1).

        Stably sorting the nonzeros into column-major order is the
        in-process analogue of the O(n/p) distributed transpose the
        paper avoids; every call pays it again.
        """
        order = np.argsort(self.col, kind="stable")
        # in the transposed structure, "rows" are the original columns
        t_rows = self.col[order]
        t_cols = self.row_local[order]
        return np.bincount(t_rows, weights=self.val[order] * e[t_cols],
                           minlength=num_features)


def chunk_id(num_partitions: int, r_id: int, p_id: int) -> int:
    """Equation 2: C = nP · rID + pID."""
    return num_partitions * r_id + p_id


def partition_of(chunk: int, num_partitions: int) -> int:
    """Equation 2 reversed: which partition owns a chunk ID."""
    return chunk % num_partitions


def row_chunk_of(chunk: int, num_partitions: int) -> int:
    """Equation 2 reversed: the local row-chunk index of a chunk ID."""
    return chunk // num_partitions


class DistributedSamples:
    """Training data distributed as Eq.-2-numbered sample chunks."""

    def __init__(self, rdd, num_features: int, num_partitions: int,
                 chunks_per_partition: list, total_rows: int, context):
        self.rdd = rdd
        self.num_features = num_features
        self.num_partitions = num_partitions
        self.chunks_per_partition = list(chunks_per_partition)
        self.total_rows = total_rows
        self.context = context

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_coo(cls, context, rows, cols, values, labels,
                 num_features: int, chunk_rows: int = 256,
                 num_partitions=None) -> "DistributedSamples":
        """Ingest a sparse sample matrix given as global COO + labels.

        Every row must index ``labels`` and every column must be below
        ``num_features``; a bad entry raises here, not inside a task.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if num_partitions is None:
            num_partitions = context.default_parallelism
        num_rows = labels.size
        if chunk_rows <= 0:
            raise ArrayError("chunk_rows must be positive")
        if not rows.size == cols.size == values.size:
            raise ShapeMismatchError(
                f"COO arrays must share a length: {rows.size} rows, "
                f"{cols.size} cols, {values.size} values")
        _check_indices("row", rows, num_rows)
        _check_indices("col", cols, num_features)

        # contiguous row ranges per partition, then Eq. 2 numbering
        bounds = np.linspace(0, num_rows, num_partitions + 1) \
                   .astype(np.int64)
        records = []
        chunks_per_partition = []
        order = np.argsort(rows, kind="stable")
        rows_sorted = rows[order]
        cols_sorted = cols[order]
        values_sorted = values[order]
        for p_id in range(num_partitions):
            lo, hi = int(bounds[p_id]), int(bounds[p_id + 1])
            r_count = 0
            for r_id, start in enumerate(range(lo, hi, chunk_rows)):
                stop = min(start + chunk_rows, hi)
                sel_lo = np.searchsorted(rows_sorted, start)
                sel_hi = np.searchsorted(rows_sorted, stop)
                chunk = SampleChunk(
                    rows_sorted[sel_lo:sel_hi] - start,
                    cols_sorted[sel_lo:sel_hi],
                    values_sorted[sel_lo:sel_hi],
                    labels[start:stop],
                    stop - start,
                )
                records.append(
                    (chunk_id(num_partitions, r_id, p_id), chunk))
                r_count += 1
            chunks_per_partition.append(r_count)
        partitioner = HashPartitioner(num_partitions)
        rdd = context.parallelize(records, num_partitions,
                                  partitioner=partitioner)
        rdd.partitioner = partitioner
        return cls(rdd, num_features, num_partitions,
                   chunks_per_partition, num_rows, context)

    @classmethod
    def from_generator(cls, context, num_partitions: int,
                       partition_chunks, num_features: int
                       ) -> "DistributedSamples":
        """Distributed ingest: ``partition_chunks(p_id)`` yields
        :class:`SampleChunk` objects for partition ``p_id``.

        Chunk IDs are assigned inside each partition with Eq. 2 — the
        paper's point is exactly that this needs no coordination.
        """
        rdd = context.generate(
            num_partitions,
            partial(_numbered, partition_chunks, num_partitions),
            partitioner=HashPartitioner(num_partitions)).cache()
        counts = rdd.map_partitions(_num_records).collect()
        rows = rdd.values().map(attrgetter("num_rows")).sum()
        return cls(rdd, num_features, num_partitions, counts, rows,
                   context)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def cache(self) -> "DistributedSamples":
        self.rdd.cache()
        return self

    def nnz(self) -> int:
        return self.rdd.values().map(attrgetter("nnz")).sum()

    def memory_bytes(self) -> int:
        return self.rdd.values().map(attrgetter("nbytes")).sum()

    def sampled_gradient(self, x: np.ndarray, step: int,
                         chunks_per_step: int = 1, opt1: bool = True,
                         seed: int = 0):
        """One parallel mini-batch gradient of the logistic loss.

        Every partition draws ``chunks_per_step`` of its own chunks
        (Eq. 2 reversed — no shuffle), computes the partial gradient
        ``(sigmoid(X_batch · x) − y)ᵀ · X_batch`` against the broadcast
        ``x``, and the driver sums the partials.
        Returns ``(gradient_row, num_samples)``.
        """
        pieces = self.rdd.map_partitions_with_index(partial(
            _sampled_gradient, x, step, chunks_per_step, opt1, seed,
            self.num_features, self.num_partitions)).collect()
        grad = np.zeros(self.num_features)
        total = 0
        for piece_grad, piece_count in pieces:
            grad += piece_grad
            total += piece_count
        return grad, total

    def evaluate_accuracy(self, x: np.ndarray) -> float:
        """Fraction of rows classified correctly under weights ``x``."""
        pieces = self.rdd.map_partitions(
            partial(_count_correct, x)).collect()
        correct = sum(piece[0] for piece in pieces)
        total = sum(piece[1] for piece in pieces)
        return correct / total if total else 0.0


def _numbered(partition_chunks, num_partitions, p_id):
    """Partition ``p_id``'s chunks under their Eq. 2 IDs."""
    for r_id, chunk in enumerate(partition_chunks(p_id)):
        yield chunk_id(num_partitions, r_id, p_id), chunk


def _num_records(part):
    return [len(list(part))]


def _sampled_gradient(x, step, chunks_per_step, opt1, seed, num_features,
                      num_partitions, index, part):
    """A partition's ``[(partial_gradient, rows)]`` over
    ``chunks_per_step`` of its chunks, drawn by step and partition."""
    records = list(part)
    # the one feature-length vector this partition touches
    grad = np.zeros(num_features)
    if not records:
        return [(grad, 0)]
    rng = random.Random(seed * 1_000_003 + step * 7919 + index)
    count = 0
    picks = min(chunks_per_step, len(records))
    local = {row_chunk_of(cid, num_partitions): chunk
             for cid, chunk in records}
    chosen_rids = rng.sample(sorted(local), picks)
    for r_id in chosen_rids:
        chunk = local[r_id]
        z = chunk.dot(x)
        error = _sigmoid(z) - chunk.labels
        if opt1:
            chunk.add_t_dot(grad, error)
        else:
            grad += chunk.t_dot_materialized(error, num_features)
        count += chunk.num_rows
    return [(grad, count)]


def _count_correct(x, part):
    """``[(correct, rows)]`` of a partition under weights ``x``."""
    correct = 0
    total = 0
    for _cid, chunk in part:
        if chunk.num_rows == 0:
            continue
        predicted = _sigmoid(chunk.dot(x)) >= 0.5
        correct += int((predicted == (chunk.labels >= 0.5)).sum())
        total += chunk.num_rows
    return [(correct, total)]


def _check_indices(axis: str, indices: np.ndarray, bound: int) -> None:
    """Raise unless every index lies in ``[0, bound)``, naming one that
    does not."""
    if not indices.size:
        return
    low, high = int(indices.min()), int(indices.max())
    if low < 0 or high >= bound:
        bad = low if low < 0 else high
        raise ShapeMismatchError(f"{axis} {bad} outside [0, {bound})")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; ``exp`` only sees ``−|z|``, so never overflows.

    ``1 / (1 + e^-z)`` for ``z ≥ 0`` and ``e^z / (1 + e^z)`` below,
    evaluated without masks.
    """
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)
