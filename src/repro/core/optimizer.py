"""Rule-based rewrite optimizer over logical array plans.

Sits between the recorded :mod:`repro.core.logical` tree and its
lowering to ChunkPlan kernels / engine RDDs. Every rule is an exact
rewrite — the optimized plan lowers to chunks byte-identical to the
plan as written — so each one applies wherever it matches, with no
pricing step. Every plan read through ``ArrayRDD.rdd`` is optimized.

Rule catalog
------------
- ``fold_scalars`` — adjacent scalar ops collapse into one
  :class:`~repro.core.plan.FoldedScalarKernel` dispatch (bit-exact: the
  arithmetic sequence is preserved).
- ``subarray_before_scalar`` — a restriction hoists above scalar
  arithmetic so it prunes before computing (scalar ops are strictly
  element-wise, so the swap is exact; arbitrary ``map_values`` /
  ``filter`` callables may be vector-dependent and are never reordered).

Both rules shrink or sink a node, so rewriting terminates.
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
]

#: safety valve: rules fired per optimize() call (every rule shrinks or
#: sinks a node, so rewriting terminates; this bounds pathological trees)
MAX_FIRINGS = 64


def _scanned_chunks(node) -> float:
    """Estimated chunk records flowing into operators across a tree —
    the before/after difference is the ``chunks_pruned`` metric."""
    if isinstance(node, SourceOp):
        return 0.0
    total = 0.0
    for child in node.children:
        total += estimate(child)[0] + _scanned_chunks(child)
    return total


# ----------------------------------------------------------------------
# rewrite rules — each returns a rewritten subtree or None
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


#: (name, rule) in application order
RULES = (
    ("fold_scalars", _rule_fold_scalars),
    ("subarray_before_scalar", _rule_subarray_before_scalar),
)


# ----------------------------------------------------------------------
# the rewriter
# ----------------------------------------------------------------------

def optimize(node):
    """Rewrite a logical tree with every rule that matches.

    Returns ``(tree, rules_fired, chunks_pruned)`` — the (possibly
    unchanged) tree, the names of rules that fired in order, and the
    estimated reduction in chunk records flowing through operators.
    """
    fired = []
    budget = {"remaining": MAX_FIRINGS}
    before = _scanned_chunks(node)
    rewritten = _rewrite(node, fired, budget)
    if not fired:
        return node, [], 0
    pruned = max(0, int(round(before - _scanned_chunks(rewritten))))
    return rewritten, fired, pruned


def _rewrite(node, fired, budget):
    # MatmulOp operands are driver-side matrix handles whose own logical
    # trees optimize at their own lowering; SourceOps are leaves
    if isinstance(node, (SourceOp, MatmulOp)):
        rebuilt = node
    else:
        children = tuple(_rewrite(child, fired, budget)
                         for child in node.children)
        if all(new is old for new, old
               in zip(children, node.children)):
            rebuilt = node
        else:
            rebuilt = node.with_children(children)
    if budget["remaining"] <= 0:
        return rebuilt
    for name, rule in RULES:
        candidate = rule(rebuilt)
        if candidate is None:
            continue
        fired.append(name)
        budget["remaining"] -= 1
        # a rewrite can expose new opportunities both below (a hoisted
        # subarray meets a new child) and at this position (another
        # rule now matches) — re-run the rewriter on the candidate
        return _rewrite(candidate, fired, budget)
    return rebuilt
