"""Logical array plans: the algebra above the ChunkPlan kernel layer.

ChunkPlan (:mod:`repro.core.plan`) fuses chunk-local kernels in whatever
order the user wrote them; nothing *reorders*. This module adds the
missing logical layer: ArrayRDD / MaskRDD / matrix operators *record*
:class:`LogicalOp` DAG nodes instead of eagerly appending kernels or
building RDDs. When an action forces evaluation, the recorded tree is
rewritten by the optimizer (:mod:`repro.core.optimizer`), whose exact
rules apply wherever they match, and then **lowered** right back onto
today's physical layer — ChunkPlan kernels for the chunk-local nodes,
engine joins / partition_by / the matmul machinery for the wide ones —
so the executor, fusion, the columnar shuffle, and all three backends
are untouched.

The lowering contract is strict: lowering a recorded tree as written
(``lower_to_rdd`` with no rule applied) produces *exactly* the RDD
graph and ChunkPlans the pre-logical operators built, and the
optimized tree lowers to byte-identical chunks, so every byte-identity
guarantee of the kernel layer carries over unchanged.

Layer map::

    user operators          ->  LogicalOp DAG        (this module)
    rule-applied rewrites   ->  repro.core.optimizer
    chunk-local lowering    ->  repro.core.plan       (ChunkPlan kernels)
    wide lowering           ->  repro.engine          (joins, shuffles)
"""

from __future__ import annotations

from repro.core import mapper
from repro.core.plan import (
    ChunkPlan,
    DropEmpty,
    ElementwiseSource,
    FilterKernel,
    FoldedScalarKernel,
    MapValuesKernel,
    MaskAndKernel,
    MaskApplySource,
    RepackKernel,
    ScalarOpKernel,
)

__all__ = [
    "ElementwiseOp",
    "FilterOp",
    "FoldedScalarOp",
    "LogicalOp",
    "MapOp",
    "MaskApplyOp",
    "MatmulOp",
    "RepackOp",
    "ScalarOp",
    "ShuffleOp",
    "SourceOp",
    "SubarrayOp",
    "estimate",
    "lower_to_rdd",
    "render_tree",
]

# ----------------------------------------------------------------------
# nodes
# ----------------------------------------------------------------------

class LogicalOp:
    """One node of a logical array plan.

    ``children`` is the tuple of upstream logical nodes; ``meta`` is the
    :class:`~repro.core.metadata.ArrayMetadata` of the node's output.
    Nodes are immutable: rewrites build new trees.
    """

    name = "op"
    children = ()

    @property
    def meta(self):
        return self.children[0].meta

    def describe(self) -> str:
        return self.name

    def with_children(self, children) -> "LogicalOp":
        raise NotImplementedError


class SourceOp(LogicalOp):
    """Leaf: a concrete ``(chunk_id, Chunk)`` RDD already in the engine.

    ``chunk_ids`` — the IDs of the stored chunks, captured at creation
    time (``from_numpy`` knows them for free) — make the optimizer's
    pruned-chunk count exact; ``None`` means unknown.
    """

    name = "source"

    def __init__(self, rdd, meta, chunk_ids=None):
        self.rdd = rdd
        self._meta = meta
        self.chunk_ids = chunk_ids

    @property
    def meta(self):
        return self._meta

    def describe(self) -> str:
        known = (f" chunks={len(self.chunk_ids)}"
                 if self.chunk_ids is not None else "")
        return (f"source[shape={self._meta.shape} "
                f"chunk={self._meta.chunk_shape}{known}]")

    def with_children(self, children) -> "SourceOp":
        return self


class MapOp(LogicalOp):
    """``map_values``: vectorized function over every valid value."""

    name = "map"

    def __init__(self, child, func):
        self.children = (child,)
        self.func = func

    def describe(self) -> str:
        return f"map[{getattr(self.func, '__name__', 'fn')}]"

    def with_children(self, children) -> "MapOp":
        return MapOp(children[0], self.func)


class ScalarOp(LogicalOp):
    """Scalar arithmetic (``a * 2``, ``2 ** a``, ...)."""

    name = "scalar"

    def __init__(self, child, op, scalar, reflected=False, opname=None):
        self.children = (child,)
        self.op = op
        self.scalar = scalar
        self.reflected = reflected
        self.opname = opname or getattr(op, "__name__", "op")

    def describe(self) -> str:
        return f"scalar[{self.opname} {self.scalar!r}]"

    def with_children(self, children) -> "ScalarOp":
        return ScalarOp(children[0], self.op, self.scalar,
                        self.reflected, self.opname)


class FoldedScalarOp(LogicalOp):
    """Adjacent scalar ops folded into one kernel application.

    ``stages`` is a tuple of ``(op, scalar, reflected, opname)`` applied
    in order — the arithmetic sequence is preserved exactly, so the
    result is bit-identical to the unfolded chain; only the per-kernel
    dispatch overhead is saved.
    """

    name = "scalar_fold"

    def __init__(self, child, stages):
        self.children = (child,)
        self.stages = tuple(stages)

    def describe(self) -> str:
        ops = "+".join(stage[3] for stage in self.stages)
        return f"scalar_fold[{ops}]"

    def with_children(self, children) -> "FoldedScalarOp":
        return FoldedScalarOp(children[0], self.stages)


class FilterOp(LogicalOp):
    """Invalidate cells whose value fails a vectorized predicate."""

    name = "filter"

    def __init__(self, child, predicate):
        self.children = (child,)
        self.predicate = predicate

    def describe(self) -> str:
        return f"filter[{getattr(self.predicate, '__name__', 'pred')}]"

    def with_children(self, children) -> "FilterOp":
        return FilterOp(children[0], self.predicate)


class SubarrayOp(LogicalOp):
    """Restrict to the closed coordinate box ``[lo, hi]`` (Fig. 4a)."""

    name = "subarray"

    def __init__(self, child, lo, hi):
        self.children = (child,)
        self.lo = tuple(int(c) for c in lo)
        self.hi = tuple(int(c) for c in hi)
        # validates the box now (call-site error timing) and feeds the
        # optimizer's pruned-chunk count — a pure metadata computation
        self.wanted = frozenset(
            mapper.chunk_ids_in_range(self.meta, self.lo, self.hi))

    def describe(self) -> str:
        pruned = self.meta.num_chunks - len(self.wanted)
        note = f" prunes {pruned}/{self.meta.num_chunks}" if pruned else ""
        return f"subarray[{self.lo}..{self.hi}{note}]"

    def with_children(self, children) -> "SubarrayOp":
        return SubarrayOp(children[0], self.lo, self.hi)


class RepackOp(LogicalOp):
    """Re-apply the chunk density-mode policy."""

    name = "repack"

    def __init__(self, child):
        self.children = (child,)

    def with_children(self, children) -> "RepackOp":
        return RepackOp(children[0])


class ShuffleOp(LogicalOp):
    """Redistribute chunk records under an explicit partitioner."""

    name = "shuffle"

    def __init__(self, child, partitioner):
        self.children = (child,)
        self.partitioner = partitioner

    def describe(self) -> str:
        return (f"shuffle[{type(self.partitioner).__name__}:"
                f"{self.partitioner.num_partitions}]")

    def with_children(self, children) -> "ShuffleOp":
        return ShuffleOp(children[0], self.partitioner)


class ElementwiseOp(LogicalOp):
    """Cell-wise combination of two co-dimensional arrays (a join)."""

    def __init__(self, left, right, op, how, fill, meta):
        self.children = (left, right)
        self.op = op
        self.how = how
        self.fill = fill
        self._meta = meta
        self.name = f"elementwise_{how}"

    @property
    def meta(self):
        return self._meta

    def describe(self) -> str:
        opname = getattr(self.op, "__name__", "op")
        return f"elementwise[{opname} how={self.how}]"

    def with_children(self, children) -> "ElementwiseOp":
        return ElementwiseOp(children[0], children[1], self.op,
                             self.how, self.fill, self._meta)


class MaskApplyOp(LogicalOp):
    """Reconcile an attribute with a MaskRDD (one AND per chunk)."""

    name = "apply_mask"

    def __init__(self, child, mask):
        self.children = (child,)
        self.mask = mask        # a MaskRDD handle (driver-side only)

    def describe(self) -> str:
        return "apply_mask"

    def with_children(self, children) -> "MaskApplyOp":
        return MaskApplyOp(children[0], self.mask)


class MatmulOp(LogicalOp):
    """Distributed block matrix multiply of two SpangleMatrix operands.

    The operands stay driver-side matrix handles; their own pending
    logical plans lower when this node does.
    """

    name = "matmul"

    def __init__(self, left, right, local_join, meta):
        self.left = left
        self.right = right
        self.local_join = local_join
        self._meta = meta

    @property
    def meta(self):
        return self._meta

    @property
    def children(self):
        return (self.left.array._logical, self.right.array._logical)

    def describe(self) -> str:
        kind = "local_join" if self.local_join else "shuffled"
        return f"matmul[{kind} {self.left.shape}x{self.right.shape}]"

    def with_children(self, children) -> "MatmulOp":
        return self


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def render_tree(node: LogicalOp, indent: int = 0) -> str:
    """Indented one-line-per-node rendering of a logical tree."""
    lines = [("  " * indent) + node.describe()]
    for child in node.children:
        lines.append(render_tree(child, indent + 1))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# statistics: chunk records per node (the pruned-chunk count)
# ----------------------------------------------------------------------

def estimate(node: LogicalOp):
    """``(chunks, ids)`` for one node's output stream: the estimated
    chunk record count and, while every op below keeps each chunk's ID,
    the exact set of surviving IDs (else None)."""
    if isinstance(node, SourceOp):
        if node.chunk_ids is not None:
            return len(node.chunk_ids), node.chunk_ids
        return node.meta.num_chunks, None
    if isinstance(node, MatmulOp):
        return node.meta.num_chunks, None
    chunks, ids = estimate(node.children[0])
    if isinstance(node, (MapOp, ScalarOp, FoldedScalarOp, RepackOp,
                         ShuffleOp)):
        return chunks, ids
    if isinstance(node, SubarrayOp):
        if ids is not None:
            ids = ids & node.wanted
            return len(ids), ids
        num_chunks = node.meta.num_chunks
        return (chunks * len(node.wanted) / num_chunks
                if num_chunks else 0.0), None
    if isinstance(node, ElementwiseOp):
        other, _ids = estimate(node.children[1])
        pick = min if node.how == "and" else max
        return pick(chunks, other), None
    # a filter or a mask may drop any chunk
    return chunks, None


# ----------------------------------------------------------------------
# lowering: logical tree -> (RDD, pending ChunkPlan)
# ----------------------------------------------------------------------

def _kernel_for(node: LogicalOp):
    """The ChunkPlan kernel implementing one chunk-local node."""
    if isinstance(node, MapOp):
        return MapValuesKernel(node.func)
    if isinstance(node, FilterOp):
        return FilterKernel(node.predicate)
    if isinstance(node, ScalarOp):
        return ScalarOpKernel(node.op, node.scalar,
                              reflected=node.reflected, name=node.opname)
    if isinstance(node, FoldedScalarOp):
        return FoldedScalarKernel(node.stages)
    if isinstance(node, SubarrayOp):
        return MaskAndKernel(node.meta, node.lo, node.hi)
    if isinstance(node, RepackOp):
        return RepackKernel()
    raise TypeError(f"no kernel lowering for {type(node).__name__}")


_CHUNK_LOCAL = (MapOp, FilterOp, ScalarOp, FoldedScalarOp, SubarrayOp,
                RepackOp)


def lower_to_rdd(node: LogicalOp, context, metrics=None):
    """Lower a logical tree to a concrete chunk RDD.

    Chunk-local chains become pending ChunkPlans compiled into single
    fused ``map_partitions`` passes — exactly the plans the pre-logical
    operators built — and wide nodes become the same engine joins /
    shuffles they always were. ``metrics=None`` lowers silently (used by
    ``explain`` so inspection does not bump fusion counters).
    """
    rdd, pending = _lower(node, context, metrics, {})
    return _compile(rdd, pending, metrics)


def _lower(node, context, metrics, memo):
    key = id(node)
    if key in memo:
        return memo[key]
    result = _lower_uncached(node, context, metrics, memo)
    memo[key] = result
    return result


def _compile(rdd, pending, metrics):
    if pending.is_identity:
        return rdd
    return pending.compile(rdd, metrics)


def _lower_uncached(node, context, metrics, memo):
    if isinstance(node, SourceOp):
        return node.rdd, ChunkPlan.identity()
    if isinstance(node, _CHUNK_LOCAL):
        rdd, pending = _lower(node.children[0], context, metrics, memo)
        return rdd, pending.then(_kernel_for(node))
    if isinstance(node, ShuffleOp):
        rdd, pending = _lower(node.children[0], context, metrics, memo)
        rdd = _compile(rdd, pending, metrics)
        return rdd.partition_by(node.partitioner), ChunkPlan.identity()
    if isinstance(node, ElementwiseOp):
        left, left_pending = _lower(node.children[0], context, metrics,
                                    memo)
        right, right_pending = _lower(node.children[1], context,
                                      metrics, memo)
        left = _compile(left, left_pending, metrics)
        right = _compile(right, right_pending, metrics)
        if node.how == "and":
            joined = left.join(right)
        else:
            joined = left.full_outer_join(right)
        source = ElementwiseSource(node.op, node.how, node.fill,
                                   node.meta.cells_per_chunk,
                                   node.meta.dtype)
        return joined, ChunkPlan(source, (DropEmpty(),))
    if isinstance(node, MaskApplyOp):
        array, pending = _lower(node.children[0], context, metrics, memo)
        array = _compile(array, pending, metrics)
        joined = array.join(node.mask.rdd)
        return joined, ChunkPlan(MaskApplySource(), (DropEmpty(),))
    if isinstance(node, MatmulOp):
        from repro.matrix.multiply import lower_matmul

        return lower_matmul(node, context), ChunkPlan.identity()
    raise TypeError(f"cannot lower {type(node).__name__}")


# ----------------------------------------------------------------------
# helpers shared with the operators
# ----------------------------------------------------------------------

def chunk_ids_from_records(records) -> frozenset:
    """The stored chunk IDs of a driver-side record list."""
    return frozenset(cid for cid, _chunk in records)
