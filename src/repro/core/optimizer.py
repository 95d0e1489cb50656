"""Cost-gated rewrite optimizer over logical array plans.

Sits between the recorded :mod:`repro.core.logical` tree and its
lowering to ChunkPlan kernels / engine RDDs. Each rewrite rule proposes
a transformed subtree and keeps it only when the
:class:`~repro.engine.costmodel.ClusterCostModel` prices the candidate
strictly cheaper — scans via :meth:`scan_seconds` fed with the
per-chunk density statistics the estimates carry, a matmul's data
movement via :meth:`shuffle_seconds`. Rules therefore never fire on
plans they cannot improve; every plan read through ``ArrayRDD.rdd`` is
optimized, and the optimized plan is byte-identical to the plan as
written.

Rule catalog
------------
- ``fold_scalars`` — adjacent scalar ops collapse into one
  :class:`~repro.core.plan.FoldedScalarKernel` dispatch (bit-exact: the
  arithmetic sequence is preserved).
- ``subarray_before_scalar`` — a restriction hoists above scalar
  arithmetic so it prunes before computing (scalar ops are strictly
  element-wise, so the swap is exact; arbitrary ``map_values`` /
  ``filter`` callables may be vector-dependent and are never reordered).
- ``matmul_sparse_execution`` — a matmul over operands with exact
  per-chunk stats gets a :class:`~repro.core.logical.MatmulExecPlan`:
  the cheaper priced block kernel (dense / CSR) and, when it
  lowers the modeled gather skew, nnz-balanced shuffle placement in
  place of hash.
"""

from __future__ import annotations

from repro.core.logical import (
    FoldedScalarOp,
    MatmulOp,
    ScalarOp,
    SourceOp,
    SubarrayOp,
    estimate,
)

__all__ = [
    "optimize",
    "plan_cost",
]

#: safety valve: rules fired per optimize() call (cost gating already
#: guarantees termination; this bounds pathological trees)
MAX_FIRINGS = 64


# ----------------------------------------------------------------------
# plan pricing
# ----------------------------------------------------------------------

def _node_cost(node, model) -> float:
    """Modeled seconds to execute one node given its inputs.

    A matmul prices its shuffles and partial-product stage; every other
    node prices as one chunk-local pass over its first input.
    """
    if isinstance(node, SourceOp):
        return 0.0
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
    child = estimate(node.children[0])
    return model.scan_seconds(child.dense_bytes, child.density)


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


def _rule_matmul_sparse_execution(node):
    # attach a MatmulExecPlan (kernel kind + nnz-balanced placement)
    # when the operands carry exact per-chunk stats; the cost gate
    # keeps it only when the priced kernel/skew beats the density-gated
    # default under hash placement
    if not isinstance(node, MatmulOp):
        return None
    from repro.matrix.multiply import plan_matmul_execution

    return plan_matmul_execution(node)


#: (name, rule) in application order
RULES = (
    ("fold_scalars", _rule_fold_scalars),
    ("subarray_before_scalar", _rule_subarray_before_scalar),
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
        # a rewrite can expose new opportunities both below (a hoisted
        # subarray meets a new child) and at this position (another
        # rule now matches) — re-run the rewriter on the candidate
        return _rewrite(candidate, model, fired, budget)
    return rebuilt
