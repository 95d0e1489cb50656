"""Distributed block matrix multiplication (Sections V-A-4 and VI-A).

The default path mirrors Spark's three-stage plan: two shuffles to key
the operands by the contraction block index *k*, then a reduce to gather
partial products per output block.

The **local join** path (Section VI-A) applies when the left operand is
partitioned by column-block and the right by row-block under the *same*
partitioner: the join becomes a per-partition zip — one fused stage, no
input shuffle — and only the final gather shuffles. The paper reports
this is what lets Spangle survive the largest (Mawi) matrices.

Partial products are bitmask-gated: a pair of blocks is multiplied only
when both carry valid cells, and zero rows/columns never reach the
kernel.

The **sparse execution tier** layers two decisions on top:

- *kernel*: per block pair, dense BLAS vs the vectorized CSR kernels
  (:func:`_csr_join` for sparse×sparse and the CSR×dense scatter of
  :func:`_scatter_partial` for one-sided sparsity);
- *placement*: the k-shuffle and the gather shuffle may swap their hash
  partitioners for :class:`~repro.engine.partitioner
  .NnzBalancedPartitioner`\\ s packed from per-chunk valid counts, so a
  power-law nnz distribution cannot strand the stage on one executor.

Both decisions are made on the driver — either by the rewrite
optimizer (a :class:`~repro.core.logical.MatmulExecPlan` attached to
the MatmulOp, priced by the cost model) or by the density gates of
:func:`sparse_threshold` — and shipped to workers inside the picklable
:class:`_BlockKernel`, so every backend (serial, thread, process) runs
the same arithmetic in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.core.array_rdd import ArrayRDD
from repro.core.chunk import Chunk
from repro.core.logical import MatmulExecPlan, MatmulOp, SourceOp, estimate
from repro.core.metadata import ArrayMetadata
from repro.engine import HashPartitioner
from repro.engine.partitioner import (
    ExplicitPartitioner,
    NnzBalancedPartitioner,
)
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


#: Fallback density gate below which both operands take the sparse
#: partial-product path. The *derived* gate normally comes from the
#: context's cost model (``sparse_kernel_threshold()`` — 0.02 at the
#: default rates, so the constant and the model agree out of the box);
#: this constant only applies when no cost model is reachable.
SPARSE_KERNEL_THRESHOLD = 0.02


def sparse_threshold(cost_model=None) -> float:
    """The effective sparse-kernel density gate: the cost model's
    derived gate, or the constant for callers with no model in reach
    (the documented default the model reproduces).
    """
    if cost_model is not None:
        return cost_model.sparse_kernel_threshold()
    return SPARSE_KERNEL_THRESHOLD


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
    """The driver-chosen per-block-pair kernel, shipped to workers.

    A module-level class (process-backend tasks pickle it by
    reference) holding the *resolved* policy: the kernel kind and the
    density gates, decided once on the driver from the exec plan and
    the cost model, so every backend multiplies the same blocks the
    same way.
    """

    __slots__ = ("left_shape", "right_shape", "kind", "gate",
                 "scatter_gate")

    def __init__(self, left_shape, right_shape, kind, gate,
                 scatter_gate):
        self.left_shape = left_shape
        self.right_shape = right_shape
        self.kind = kind                  # "csr" | "dense"
        self.gate = gate                  # both-sparse density gate
        self.scatter_gate = scatter_gate  # one-sided CSR×dense gate

    def __getstate__(self):
        return (self.left_shape, self.right_shape, self.kind,
                self.gate, self.scatter_gate)

    def __setstate__(self, state):
        (self.left_shape, self.right_shape, self.kind, self.gate,
         self.scatter_gate) = state

    def __call__(self, left_chunk, right_chunk):
        if left_chunk.valid_count == 0 or right_chunk.valid_count == 0:
            return None
        da = left_chunk.density
        db = right_chunk.density
        if self.kind == "csr" and da < self.gate and db < self.gate:
            return _sparse_partial(
                left_chunk, right_chunk, self.left_shape[0],
                self.left_shape[1], self.right_shape[1])
        if self.kind == "csr" and min(da, db) < self.scatter_gate:
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


def _resolve_kernel(left, right, exec_plan=None):
    """The :class:`_BlockKernel` for one matmul, resolved driver-side:
    the optimizer's exec plan kernel, else CSR kernels behind the cost
    model's density gates.
    """
    kind = exec_plan.kernel if exec_plan is not None else "csr"
    cost_model = getattr(left.context, "cost_model", None)
    gate = sparse_threshold(cost_model)
    scatter_gate = 0.0
    if kind == "csr":
        scatter_gate = (cost_model.scatter_kernel_threshold()
                        if cost_model is not None else 0.1)
    return _BlockKernel(tuple(left.block_shape),
                        tuple(right.block_shape), kind, gate,
                        scatter_gate)


def _result_meta(left, right) -> ArrayMetadata:
    return ArrayMetadata(
        (left.shape[0], right.shape[1]),
        (left.block_shape[0], right.block_shape[1]),
        dim_names=("row", "col"),
    )


def _assemble(context, partials_rdd, meta) -> ArrayRDD:
    """(chunk_id, partial sum) records → (chunk_id, Chunk) records.

    The gather shuffle upstream already keys partials by output chunk
    ID (``rb + cb * out_grid_rows``) so its int keys ride the columnar
    path; this step only densifies.
    """

    def to_chunk(record):
        chunk_id, partial = record
        flat = _partial_to_dense(partial).ravel(order="F")
        return chunk_id, Chunk.from_dense(flat, flat != 0)

    chunks = partials_rdd.map(to_chunk) \
        .filter(lambda kv: kv[1].valid_count > 0)
    partitioner = HashPartitioner(partials_rdd.num_partitions)
    placed = chunks.partition_by(partitioner)
    return ArrayRDD(placed, meta, context)


def k_partitioners(left, right, num_partitions: int):
    """The co-partitioning pair for the local join.

    Left blocks are placed by their column-block index, right blocks by
    their row-block index — both modulo the same partition count and
    under the same tag, so the engine treats them as equal partitioners
    and the contraction index *k* of both operands lands in the same
    partition.
    """
    tag = ("matmul-k", num_partitions)
    grid_rows_left = left.grid_rows
    grid_rows_right = right.grid_rows
    left_part = ExplicitPartitioner(
        num_partitions, lambda cid: cid // grid_rows_left, tag=tag,
        array_func=lambda cids: cids // grid_rows_left)
    right_part = ExplicitPartitioner(
        num_partitions, lambda cid: cid % grid_rows_right, tag=tag,
        array_func=lambda cids: cids % grid_rows_right)
    return left_part, right_part


def prepare_local(left, right, num_partitions=None):
    """Pre-place both operands for the local join (one-off shuffles).

    Returns ``(left_prepared, right_prepared)``. Once prepared, every
    ``block_matmul(..., local_join=True)`` on the pair runs without
    shuffling the inputs — the fused single stage of Section VI-A.
    """
    from repro.matrix.matrix import SpangleMatrix

    if num_partitions is None:
        num_partitions = left.array.rdd.num_partitions
    left_part, right_part = k_partitioners(left, right, num_partitions)
    left_placed = left.array.rdd.partition_by(left_part)
    right_placed = right.array.rdd.partition_by(right_part)
    return (
        SpangleMatrix(ArrayRDD(left_placed, left.meta, left.context)),
        SpangleMatrix(ArrayRDD(right_placed, right.meta, right.context)),
    )


def block_matmul(left, right, local_join: bool = False):
    """``left × right`` as a SpangleMatrix.

    Recorded as a logical :class:`~repro.core.logical.MatmulOp`, so the
    optimizer can attach a kernel and placement plan
    (``matmul_sparse_execution``) before anything runs;
    :func:`lower_matmul` runs the actual three-stage plan when an
    action forces it.
    """
    from repro.matrix.matrix import SpangleMatrix

    _check_dims(left, right)
    meta = _result_meta(left, right)
    node = MatmulOp(left, right, local_join, meta)
    return SpangleMatrix(ArrayRDD(None, meta, left.context, logical=node))


def lower_matmul(node: MatmulOp, context):
    """Lower a recorded matmul node to its concrete chunk RDD."""
    return _run_matmul(node.left, node.right, node.local_join,
                       node.meta, context, exec_plan=node.exec_plan)


def _partition_loads(partitioner, weights: dict) -> np.ndarray:
    """Per-partition total weight a partitioner produces over a
    ``{key: weight}`` map (hash or nnz-balanced alike)."""
    loads = np.zeros(partitioner.num_partitions)
    for key, weight in weights.items():
        loads[partitioner.partition(int(key))] += float(weight)
    return loads


def _record_nnz_stats(context, stage: str, loads) -> None:
    stats = getattr(context, "nnz_stats", None)
    if stats is not None:
        stats.record(stage, loads)


def _run_matmul(left, right, local_join, meta, context,
                exec_plan=None):
    out_grid_rows = meta.chunk_grid[0]
    kernel = _resolve_kernel(left, right, exec_plan)
    balance = exec_plan is not None and exec_plan.balance

    if local_join:
        partials = _local_join_partials(left, right, kernel)
    else:
        k_partitioner = None
        if balance and exec_plan.k_weights:
            k_partitioner = NnzBalancedPartitioner.from_weights(
                exec_plan.k_weights, left.array.rdd.num_partitions)
            _record_nnz_stats(
                context, "matmul-k",
                k_partitioner.partition_loads(exec_plan.k_weights))
        partials = _shuffled_partials(left, right, kernel,
                                      k_partitioner)

    # gather on the output chunk ID (an int) rather than the
    # (row_block, col_block) tuple: the columnar shuffle packs it
    keyed = partials.map(
        lambda kv: (kv[0][0] + kv[0][1] * out_grid_rows, kv[1])
    )
    gather_partitioner = None
    if balance and exec_plan.gather_weights:
        gather_partitioner = NnzBalancedPartitioner.from_weights(
            exec_plan.gather_weights, keyed.num_partitions)
        _record_nnz_stats(
            context, "matmul-gather",
            gather_partitioner.partition_loads(
                exec_plan.gather_weights))
    elif exec_plan is not None and exec_plan.gather_weights:
        _record_nnz_stats(
            context, "matmul-gather",
            _partition_loads(HashPartitioner(keyed.num_partitions),
                             exec_plan.gather_weights))
    summed = keyed.reduce_by_key(_merge_partials,
                                 partitioner=gather_partitioner)
    return _assemble(context, summed, meta).rdd


def _shuffled_partials(left, right, kernel, k_partitioner=None):
    """Spark-style: key both sides by k, cogroup (two shuffles).

    ``k_partitioner`` (when the exec plan packed one) places heavy
    contraction groups apart; the default hash placement sends k to
    partition ``k % n`` regardless of its pair count.
    """
    grid_rows_left = left.grid_rows
    grid_rows_right = right.grid_rows

    left_by_k = left.array.rdd.map(
        lambda kv: (kv[0] // grid_rows_left,
                    (kv[0] % grid_rows_left, kv[1]))
    )
    right_by_k = right.array.rdd.map(
        lambda kv: (kv[0] % grid_rows_right,
                    (kv[0] // grid_rows_right, kv[1]))
    )
    grouped = left_by_k.cogroup(right_by_k, partitioner=k_partitioner)

    def emit(groups):
        left_blocks, right_blocks = groups
        out = []
        for rb, left_chunk in left_blocks:
            for cb, right_chunk in right_blocks:
                partial = kernel(left_chunk, right_chunk)
                if partial is not None:
                    out.append(((rb, cb), partial))
        return out

    return grouped.flat_map_values(lambda g: emit(g)) \
                  .map(lambda kv: kv[1])


def _local_join_partials(left, right, kernel):
    """Fused stage: zip co-partitioned operands, no input shuffle.

    ``prepare_local`` (or matching prior placement) makes the
    ``partition_by`` calls below no-ops; otherwise they fall back to the
    one-off placement shuffles.
    """
    num_partitions = left.array.rdd.num_partitions
    left_part, right_part = k_partitioners(left, right, num_partitions)
    left_placed = left.array.rdd.partition_by(left_part)
    right_placed = right.array.rdd.partition_by(right_part)
    grid_rows_left = left.grid_rows
    grid_rows_right = right.grid_rows

    def zipper(left_records, right_records):
        right_by_k = {}
        for cid, chunk in right_records:
            right_by_k.setdefault(cid % grid_rows_right, []).append(
                (cid // grid_rows_right, chunk))
        out = []
        for cid, left_chunk in left_records:
            k = cid // grid_rows_left
            rb = cid % grid_rows_left
            for cb, right_chunk in right_by_k.get(k, ()):
                partial = kernel(left_chunk, right_chunk)
                if partial is not None:
                    out.append(((rb, cb), partial))
        return out

    return left_placed.zip_partitions(right_placed, zipper)


# ----------------------------------------------------------------------
# driver-side planning: nnz profiles and cost-model pricing
# ----------------------------------------------------------------------

def _known_partitions(matrix):
    """The operand's partition count without forcing compilation, or
    None when its plan has not materialized a source yet."""
    array = matrix.array
    if array._compiled is not None:
        return array._compiled.num_partitions
    node = array._logical
    while node is not None and not isinstance(node, SourceOp):
        children = node.children
        if not children:
            return None
        node = children[0]
    if isinstance(node, SourceOp):
        return node.rdd.num_partitions
    return None


def _imbalance(loads) -> float:
    loads = np.asarray(loads, dtype=float)
    if loads.size == 0:
        return 1.0
    mean = loads.mean()
    if mean <= 0:
        return 1.0
    return float(loads.max() / mean)


def matmul_nnz_profile(node: MatmulOp):
    """Shuffle weights and skew estimates for one matmul, from the
    operands' per-chunk valid counts. None when either side lacks exact
    stats (e.g. its plan passes through an estimate-only op).

    Returns a dict with ``k_weights`` (contraction group → modeled pair
    work), ``gather_weights`` (output chunk ID → partial-product nnz),
    and the max/mean load ratios hash vs LPT placement would produce
    for the gather, which is what the cost model's
    :meth:`skewed_stage_seconds` prices.
    """
    left, right = node.left, node.right
    left_est = estimate(left.array._logical)
    right_est = estimate(right.array._logical)
    if left_est.per_chunk is None or right_est.per_chunk is None:
        return None
    gl_rows, gl_cols = left.meta.chunk_grid
    gr_rows, gr_cols = right.meta.chunk_grid
    nnz_a = np.zeros((gl_rows, gl_cols))
    for cid, count in left_est.per_chunk.items():
        nnz_a[cid % gl_rows, cid // gl_rows] = count
    nnz_b = np.zeros((gr_rows, gr_cols))
    for cid, count in right_est.per_chunk.items():
        nnz_b[cid % gr_rows, cid // gr_rows] = count
    a_k = nnz_a.sum(axis=0)          # per contraction block, left nnz
    b_k = nnz_b.sum(axis=1)          # per contraction block, right nnz
    k_dim = max(left.block_shape[1], 1)
    k_weights = {
        int(k): float(a_k[k] * b_k[k] / k_dim + a_k[k] + b_k[k])
        for k in range(min(gl_cols, gr_rows))
        if a_k[k] > 0 and b_k[k] > 0
    }
    pair_nnz = nnz_a @ nnz_b          # expected pair count per output
    out_grid_rows = node.meta.chunk_grid[0]
    gather_weights = {
        int(rb + cb * out_grid_rows): float(pair_nnz[rb, cb])
        for rb in range(pair_nnz.shape[0])
        for cb in range(pair_nnz.shape[1])
        if pair_nnz[rb, cb] > 0
    }
    num_partitions = (_known_partitions(left)
                      or _known_partitions(right) or 8)
    hash_loads = _partition_loads(HashPartitioner(num_partitions),
                                  gather_weights)
    balanced = NnzBalancedPartitioner.from_weights(
        gather_weights, num_partitions) if gather_weights else None
    balanced_loads = (balanced.partition_loads(gather_weights)
                      if balanced is not None else hash_loads)
    return {
        "k_weights": k_weights,
        "gather_weights": gather_weights,
        "imbalance_hash": _imbalance(hash_loads),
        "imbalance_nnz": _imbalance(balanced_loads),
        "density_left": left_est.density,
        "density_right": right_est.density,
    }


def plan_matmul_execution(node: MatmulOp):
    """The optimizer rule body: a candidate MatmulOp with an attached
    :class:`~repro.core.logical.MatmulExecPlan`, or None.

    Picks the cheaper kernel kind the cost model prices (dense or CSR)
    and pairs it with nnz-balanced shuffle placement when that lowers
    the modeled skew. The optimizer's cost
    gate then accepts the candidate only when the whole plan is
    strictly cheaper than the density-gated default.
    """
    if node.exec_plan is not None:
        return None
    profile = matmul_nnz_profile(node)
    if profile is None:
        return None
    model = getattr(node.left.context, "cost_model", None)
    if model is None:
        return None
    m, k_dim = node.left.block_shape
    n = node.right.block_shape[1]
    da = profile["density_left"]
    db = profile["density_right"]
    kernel = min(("dense", "csr"),
                 key=lambda kind: model.matmul_kernel_seconds(
                     m, k_dim, n, da, db, kind))
    balance = profile["imbalance_nnz"] < profile["imbalance_hash"] - 1e-9
    plan = MatmulExecPlan(
        kernel=kernel,
        balance=balance,
        k_weights=profile["k_weights"],
        gather_weights=profile["gather_weights"],
        imbalance_hash=profile["imbalance_hash"],
        imbalance_nnz=profile["imbalance_nnz"],
    )
    return MatmulOp(node.left, node.right, node.local_join, node.meta,
                    exec_plan=plan)


def matmul_stage_seconds(node: MatmulOp, model) -> float:
    """Modeled compute seconds for a matmul's partial-product stage,
    skew included — the cost the optimizer charges on top of the
    shuffles.

    An un-planned node prices as what :func:`_resolve_kernel` would run
    (the density-gated CSR path) under hash placement; a planned node
    prices its chosen kernel under its chosen placement.
    """
    left_est = estimate(node.children[0])
    right_est = estimate(node.children[1])
    m, k_dim = node.left.block_shape
    n = node.right.block_shape[1]
    da = left_est.density
    db = right_est.density
    grid_k = max(node.left.meta.chunk_grid[1], 1)
    block_pairs = left_est.chunks * right_est.chunks / grid_k
    plan = node.exec_plan
    if plan is not None:
        kind = plan.kernel
    else:
        gate = sparse_threshold(model)
        sparse = ((da < gate and db < gate)
                  or min(da, db) < model.scatter_kernel_threshold())
        kind = "csr" if sparse else "dense"
    per_pair = model.matmul_kernel_seconds(m, k_dim, n, da, db, kind)
    imbalance = 1.0
    if plan is not None:
        imbalance = (plan.imbalance_nnz if plan.balance
                     else plan.imbalance_hash)
    else:
        profile = matmul_nnz_profile(node)
        if profile is not None:
            imbalance = profile["imbalance_hash"]
    return model.skewed_stage_seconds(block_pairs * per_pair,
                                      imbalance)


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
    out_grid_rows = meta.chunk_grid[0]
    grid_rows = matrix.grid_rows

    by_k = matrix.array.rdd.map(
        lambda kv: (kv[0] % grid_rows, (kv[0] // grid_rows, kv[1]))
    ).group_by_key()

    block_rows = matrix.block_shape[0]
    out_shape = (matrix.block_shape[1], matrix.block_shape[1])
    # resolve the density gate driver-side so process workers agree
    gate = sparse_threshold(getattr(matrix.context, "cost_model", None))

    def emit(blocks):
        out = []
        live = [(cb, chunk) for cb, chunk in blocks
                if chunk.valid_count]
        all_sparse = all(
            chunk.density < gate
            for _cb, chunk in live)
        if all_sparse:
            # sparse kernel: a block (k × c) transposes by swapping its
            # offset decomposition; only matching k-indices join
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
                        out.append(((c1, c2), partial))
            return out
        dense = {
            cb: chunk.to_dense(0).reshape(matrix.block_shape, order="F")
            for cb, chunk in live
        }
        for c1, a in dense.items():
            at = a.T
            for c2, b in dense.items():
                partial = at @ b
                if partial.any():
                    out.append(((c1, c2), partial))
        return out

    partials = by_k.flat_map_values(emit).map(lambda kv: kv[1])
    summed = partials.map(
        lambda kv: (kv[0][0] + kv[0][1] * out_grid_rows, kv[1])
    ).reduce_by_key(_merge_partials)
    return SpangleMatrix(_assemble(matrix.context, summed, meta))
