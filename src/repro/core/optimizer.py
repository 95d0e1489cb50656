"""Cost-based rewrite optimizer over logical array plans.

Sits between the recorded :mod:`repro.core.logical` tree and its
lowering to ChunkPlan kernels / engine RDDs. Each rewrite rule proposes
a transformed subtree and keeps it only when the
:class:`~repro.engine.costmodel.ClusterCostModel` prices the candidate
strictly cheaper — scans via :meth:`scan_seconds` fed with the
per-chunk density statistics the estimates carry, data movement via
:meth:`shuffle_seconds`. Rules therefore never fire on plans they
cannot improve; every plan read through ``ArrayRDD.rdd`` is optimized.

Rule catalog
------------
- ``fold_scalars`` — adjacent scalar ops collapse into one
  :class:`~repro.core.plan.FoldedScalarKernel` dispatch (bit-exact: the
  arithmetic sequence is preserved).
- ``merge_subarrays`` — nested boxes intersect into one restriction.
- ``subarray_before_scalar`` — a restriction hoists above scalar
  arithmetic so it prunes before computing (scalar ops are strictly
  element-wise, so the swap is exact; arbitrary ``map_values`` /
  ``filter`` callables may be vector-dependent and are never reordered).
- ``push_below_shuffle`` — subarray/filter move below a shuffle; the
  chunk records they see are identical, but pruned/filtered chunks no
  longer cross the network.
- ``subarray_into_elementwise`` — a restriction over a join restricts
  both operands instead (exact for and/or joins: the box commutes with
  the bitmask AND/OR and the per-cell op).
- ``subarray_into_matmul`` — a restriction over a matmul additionally
  restricts the operand sides at *block* granularity (left to the row
  blocks covering the box, right to the column blocks), so surviving
  blocks pass through bit-identical — kernel selection and summation
  order never change — while pruned blocks skip the operand shuffles.
- ``mask_only_aggregate`` — a validity-only consumer (``count_valid``)
  over value-only ops and restrictions skips every value kernel and
  counts straight off the bitmasks (the MaskRDD trick, generalized).
- ``matmul_sparse_execution`` — a matmul over operands with exact
  per-chunk stats gets a :class:`~repro.core.logical.MatmulExecPlan`:
  the cheaper priced block kernel (dense / CSR) and, when it
  lowers the modeled gather skew, nnz-balanced shuffle placement in
  place of hash.
"""

from __future__ import annotations

import operator as _operator

from repro.core import mapper
from repro.core.logical import (
    ElementwiseOp,
    FilterOp,
    FoldedScalarOp,
    MapOp,
    MaskApplyOp,
    MatmulOp,
    RepackOp,
    ScalarOp,
    ShuffleOp,
    SourceOp,
    SubarrayOp,
    boxes_intersect,
    estimate,
    subtree_partitioner,
)

__all__ = [
    "lower_count_valid",
    "optimize",
    "plan_cost",
]

#: safety valve: rules fired per optimize() call (cost gating already
#: guarantees termination; this bounds pathological trees)
MAX_FIRINGS = 64


# ----------------------------------------------------------------------
# plan pricing
# ----------------------------------------------------------------------

_CHUNK_LOCAL = (MapOp, ScalarOp, FoldedScalarOp, FilterOp, SubarrayOp,
                RepackOp)


def _node_cost(node, model) -> float:
    """Modeled seconds to execute one node given its inputs."""
    if isinstance(node, SourceOp):
        return 0.0
    if isinstance(node, _CHUNK_LOCAL):
        child = estimate(node.children[0])
        return model.scan_seconds(child.dense_bytes, child.density)
    if isinstance(node, ShuffleOp):
        child = estimate(node.children[0])
        return model.shuffle_seconds(child.payload_bytes,
                                     node.partitioner.num_partitions)
    if isinstance(node, ElementwiseOp):
        left = estimate(node.children[0])
        right = estimate(node.children[1])
        cost = (model.scan_seconds(left.dense_bytes, left.density)
                + model.scan_seconds(right.dense_bytes, right.density))
        left_part = subtree_partitioner(node.children[0])
        right_part = subtree_partitioner(node.children[1])
        if left_part is None or right_part is None \
                or left_part != right_part:
            cost += model.shuffle_seconds(
                left.payload_bytes + right.payload_bytes,
                left.chunks + right.chunks)
        return cost
    if isinstance(node, MaskApplyOp):
        child = estimate(node.children[0])
        cost = model.scan_seconds(child.dense_bytes, child.density)
        mask_part = getattr(node.mask, "partitioner", None)
        child_part = subtree_partitioner(node.children[0])
        if mask_part is None or child_part is None \
                or mask_part != child_part:
            cost += model.shuffle_seconds(child.payload_bytes,
                                          child.chunks)
        return cost
    if isinstance(node, MatmulOp):
        from repro.matrix.multiply import matmul_stage_seconds

        left = estimate(node.children[0])
        right = estimate(node.children[1])
        cost = model.scan_seconds(left.dense_bytes + right.dense_bytes,
                                  max(left.density, right.density))
        if not node.local_join:
            cost += model.shuffle_seconds(
                left.payload_bytes + right.payload_bytes,
                left.chunks + right.chunks)
        # the partial-product stage itself: kernel kind and placement
        # skew, from the exec plan when one is attached, otherwise the
        # density-gated default under hash placement
        cost += matmul_stage_seconds(node, model)
        out = estimate(node)
        return cost + model.shuffle_seconds(out.payload_bytes,
                                            out.chunks)
    # unknown nodes (RawPlanOp, AggregateOp): price as one pass
    if node.children:
        child = estimate(node.children[0])
        return model.scan_seconds(child.dense_bytes, child.density)
    return 0.0


def plan_cost(node, model) -> float:
    """Total modeled seconds to execute a logical subtree."""
    return _node_cost(node, model) + sum(
        plan_cost(child, model) for child in node.children)


def _scanned_chunks(node) -> float:
    """Estimated chunk records flowing into operators across a tree —
    the before/after difference is the ``chunks_pruned`` metric."""
    if isinstance(node, SourceOp):
        return 0.0
    total = 0.0
    for child in node.children:
        total += estimate(child).chunks + _scanned_chunks(child)
    return total


# ----------------------------------------------------------------------
# rewrite rules — each returns a candidate subtree or None
# ----------------------------------------------------------------------

def _rule_fold_scalars(node):
    if not isinstance(node, ScalarOp):
        return None
    child = node.children[0]
    stage = (node.op, node.scalar, node.reflected, node.opname)
    if isinstance(child, ScalarOp):
        stages = ((child.op, child.scalar, child.reflected,
                   child.opname), stage)
    elif isinstance(child, FoldedScalarOp):
        stages = child.stages + (stage,)
    else:
        return None
    return FoldedScalarOp(child.children[0], stages)


def _rule_merge_subarrays(node):
    if not isinstance(node, SubarrayOp):
        return None
    inner = node.children[0]
    if not isinstance(inner, SubarrayOp):
        return None
    box = boxes_intersect(node.meta, (node.lo, node.hi),
                          (inner.lo, inner.hi))
    if box is None:
        # an empty box is not representable as a SubarrayOp; leave the
        # pair in place (both kernels prune everything anyway)
        return None
    return SubarrayOp(inner.children[0], box[0], box[1])


def _rule_subarray_before_scalar(node):
    # only scalar arithmetic is hoisted past: those kernels are strictly
    # element-wise by construction. map_values/filter take arbitrary
    # vectorized callables that may depend on the whole value vector,
    # so reordering them is unsound.
    if not isinstance(node, SubarrayOp):
        return None
    child = node.children[0]
    if not isinstance(child, (ScalarOp, FoldedScalarOp)):
        return None
    pushed = SubarrayOp(child.children[0], node.lo, node.hi)
    return child.with_children((pushed,))


def _rule_push_below_shuffle(node):
    if not isinstance(node, (SubarrayOp, FilterOp)):
        return None
    child = node.children[0]
    if not isinstance(child, ShuffleOp):
        return None
    pushed = node.with_children((child.children[0],))
    return ShuffleOp(pushed, child.partitioner)


def _rule_subarray_into_elementwise(node):
    if not isinstance(node, SubarrayOp):
        return None
    child = node.children[0]
    if not isinstance(child, ElementwiseOp):
        return None
    left = SubarrayOp(child.children[0], node.lo, node.hi)
    right = SubarrayOp(child.children[1], node.lo, node.hi)
    return child.with_children((left, right))


def _rule_subarray_below_mask_apply(node):
    if not isinstance(node, SubarrayOp):
        return None
    child = node.children[0]
    if not isinstance(child, MaskApplyOp):
        return None
    pushed = SubarrayOp(child.children[0], node.lo, node.hi)
    return MaskApplyOp(pushed, child.mask)


def _block_aligned_range(lo, hi, start, size, interval):
    """Clamp ``[lo, hi]`` to the axis and widen it to block boundaries.

    Returns None when the clamped range is empty. Widening is what keeps
    the matmul pushdown byte-identical: every surviving operand block is
    *fully inside* its restriction box, so it passes through the
    subarray kernel untouched — densities, kernel selection, and
    floating-point summation order never change.
    """
    end = start + size - 1
    lo = max(int(lo), start)
    hi = min(int(hi), end)
    if lo > hi:
        return None
    lo_block = (lo - start) // interval
    hi_block = (hi - start) // interval
    return (start + lo_block * interval,
            min(start + (hi_block + 1) * interval - 1, end))


def _rule_subarray_into_matmul(node):
    if not isinstance(node, SubarrayOp):
        return None
    child = node.children[0]
    if not isinstance(child, MatmulOp) or child.operands_restricted:
        return None
    from repro.matrix.matrix import SpangleMatrix

    left, right = child.left, child.right
    rows = _block_aligned_range(
        node.lo[0], node.hi[0], left.meta.starts[0],
        left.meta.shape[0], left.meta.chunk_shape[0])
    cols = _block_aligned_range(
        node.lo[1], node.hi[1], right.meta.starts[1],
        right.meta.shape[1], right.meta.chunk_shape[1])
    if rows is None or cols is None:
        return None
    new_left = SpangleMatrix(left.array.subarray(
        (rows[0], left.meta.starts[1]),
        (rows[1], left.meta.ends[1] - 1)))
    new_right = SpangleMatrix(right.array.subarray(
        (right.meta.starts[0], cols[0]),
        (right.meta.ends[0] - 1, cols[1])))
    restricted = MatmulOp(new_left, new_right, child.local_join,
                          child.meta, operands_restricted=True,
                          exec_plan=child.exec_plan)
    return SubarrayOp(restricted, node.lo, node.hi)


def _rule_matmul_sparse_execution(node):
    # attach a MatmulExecPlan (kernel kind + nnz-balanced placement)
    # when the operands carry exact per-chunk stats; the cost gate
    # keeps it only when the priced kernel/skew beats the density-gated
    # default under hash placement
    if not isinstance(node, MatmulOp) or node.exec_plan is not None:
        return None
    from repro.matrix.multiply import plan_matmul_execution

    return plan_matmul_execution(node)


#: (name, rule) in application order — cheap structural simplifications
#: first, then the pushdowns they enable
RULES = (
    ("merge_subarrays", _rule_merge_subarrays),
    ("fold_scalars", _rule_fold_scalars),
    ("subarray_before_scalar", _rule_subarray_before_scalar),
    ("push_below_shuffle", _rule_push_below_shuffle),
    ("subarray_into_elementwise", _rule_subarray_into_elementwise),
    ("subarray_below_mask_apply", _rule_subarray_below_mask_apply),
    ("subarray_into_matmul", _rule_subarray_into_matmul),
    ("matmul_sparse_execution", _rule_matmul_sparse_execution),
)


# ----------------------------------------------------------------------
# the rewriter
# ----------------------------------------------------------------------

def optimize(node, context):
    """Rewrite a logical tree under the context's cost model.

    Returns ``(tree, rules_fired, chunks_pruned)`` — the (possibly
    unchanged) tree, the names of rules that fired in order, and the
    estimated reduction in chunk records flowing through operators.
    """
    model = context.cost_model
    fired = []
    budget = {"remaining": MAX_FIRINGS}
    before = _scanned_chunks(node)
    rewritten = _rewrite(node, model, fired, budget)
    if not fired:
        return node, [], 0
    pruned = max(0, int(round(before - _scanned_chunks(rewritten))))
    return rewritten, fired, pruned


def _rewrite(node, model, fired, budget):
    # MatmulOp operands are driver-side matrix handles whose own logical
    # trees optimize at their own lowering; SourceOps are leaves
    if isinstance(node, (SourceOp, MatmulOp)):
        rebuilt = node
    else:
        children = tuple(_rewrite(child, model, fired, budget)
                         for child in node.children)
        if all(new is old for new, old
               in zip(children, node.children)):
            rebuilt = node
        else:
            rebuilt = node.with_children(children)
    if budget["remaining"] <= 0:
        return rebuilt
    old_cost = None
    for name, rule in RULES:
        candidate = rule(rebuilt)
        if candidate is None:
            continue
        if old_cost is None:
            old_cost = plan_cost(rebuilt, model)
        if plan_cost(candidate, model) >= old_cost:
            continue
        fired.append(name)
        budget["remaining"] -= 1
        # a rewrite can expose new opportunities both below (pushed
        # nodes meet new children) and at this position (another rule
        # now matches) — re-run the rewriter on the candidate
        return _rewrite(candidate, model, fired, budget)
    return rebuilt


# ----------------------------------------------------------------------
# mask-only aggregation (the consumer-driven rewrite)
# ----------------------------------------------------------------------

class _MaskOnlyCount:
    """Counts a chunk's valid cells under box restrictions — reading
    only bitmask structure, never the values.

    A module-level class so process-backend tasks pickle it by
    reference. ``boxes`` apply in recorded order; chunk-ID pruning uses
    the intersection of their wanted sets.
    """

    __slots__ = ("meta", "boxes", "wanted")

    def __init__(self, meta, boxes):
        self.meta = meta
        self.boxes = tuple(boxes)
        wanted = None
        for lo, hi in self.boxes:
            ids = frozenset(mapper.chunk_ids_in_range(meta, lo, hi))
            wanted = ids if wanted is None else (wanted & ids)
        self.wanted = wanted

    def __getstate__(self):
        return (self.meta, self.boxes, self.wanted)

    def __setstate__(self, state):
        self.meta, self.boxes, self.wanted = state

    def __call__(self, record):
        chunk_id, chunk = record
        if self.wanted is not None and chunk_id not in self.wanted:
            return 0
        offsets = None
        for lo, hi in self.boxes:
            if mapper.chunk_fully_inside(self.meta, chunk_id, lo, hi):
                continue
            inside = mapper.range_mask_for_chunk(self.meta, chunk_id,
                                                 lo, hi)
            if offsets is None:
                offsets = chunk.indices()
            offsets = offsets[inside[offsets]]
        if offsets is None:
            return int(chunk.valid_count)
        return int(offsets.size)


#: logical ops a validity-only consumer can skip outright: they never
#: change which cells are valid (shuffles merely move whole records)
_VALUE_ONLY = (MapOp, ScalarOp, FoldedScalarOp, RepackOp, ShuffleOp)


def lower_count_valid(node, context):
    """Mask-only evaluation of ``count_valid`` over a logical tree.

    When every op between the consumer and the source either preserves
    validity (map/scalar/repack/shuffle) or is a box restriction, the
    count comes straight off the source bitmasks — no value kernel, no
    shuffle, no join. Returns the count, or None when the tree has an
    op (filter, elementwise, mask apply, matmul) whose validity effect
    requires real evaluation.
    """
    boxes = []
    skipped = 0
    current = node
    while not isinstance(current, SourceOp):
        if isinstance(current, _VALUE_ONLY):
            skipped += 1
            current = current.children[0]
            continue
        if isinstance(current, SubarrayOp):
            boxes.append((current.lo, current.hi))
            current = current.children[0]
            continue
        return None
    if not boxes and not skipped:
        return None            # nothing to save; use the normal path
    counter = _MaskOnlyCount(current.meta, boxes)
    total = current.rdd.map(counter).fold(0, _operator.add)
    pruned = 0
    if counter.wanted is not None:
        pruned = current.meta.num_chunks - len(counter.wanted)
    context.metrics.add(optimizer_rules_fired=1,
                        optimizer_chunks_pruned=pruned)
    return int(total)
