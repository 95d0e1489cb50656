"""Logical array plans: the algebra above the ChunkPlan kernel layer.

ChunkPlan (:mod:`repro.core.plan`) fuses chunk-local kernels in whatever
order the user wrote them; nothing *reorders*. This module adds the
missing logical layer: ArrayRDD / MaskRDD / matrix operators *record*
:class:`LogicalOp` DAG nodes instead of eagerly appending kernels or
building RDDs. When an action forces evaluation, the recorded tree is
rewritten by the cost-gated optimizer (:mod:`repro.core.optimizer`)
and then **lowered** right back onto today's physical layer —
ChunkPlan kernels for the chunk-local nodes, engine joins /
partition_by / the matmul machinery for the wide ones — so the
executor, fusion, the columnar shuffle, and all three backends are
untouched.

The lowering contract is strict: lowering a recorded tree as written
(``lower_to_rdd`` with no rule applied) produces *exactly* the RDD
graph and ChunkPlans the pre-logical operators built, and the
optimized tree lowers to byte-identical chunks, so every byte-identity
guarantee of the kernel layer carries over unchanged.

Layer map::

    user operators          ->  LogicalOp DAG        (this module)
    cost-gated rewrites     ->  repro.core.optimizer
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
    "Estimate",
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

#: assumed fraction of cells surviving a value predicate when no better
#: statistic is available (the classic Selinger default)
DEFAULT_FILTER_SELECTIVITY = 0.5


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

    ``valid_counts`` — per-chunk valid-cell counts captured at creation
    time (``from_numpy`` knows them for free) — feed the optimizer's
    density-aware cost estimates; ``None`` means unknown.
    """

    name = "source"

    def __init__(self, rdd, meta, valid_counts=None):
        self.rdd = rdd
        self._meta = meta
        self.valid_counts = valid_counts

    @property
    def meta(self):
        return self._meta

    def describe(self) -> str:
        known = (f" chunks={len(self.valid_counts)}"
                 if self.valid_counts is not None else "")
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
        # optimizer's pruning estimates — a pure metadata computation
        self.wanted = frozenset(
            mapper.chunk_ids_in_range(self.meta, self.lo, self.hi))

    def describe(self) -> str:
        pruned = self.meta.num_chunks - len(self.wanted)
        note = f" prunes {pruned}/{self.meta.num_chunks}" if pruned else ""
        return f"subarray[{self.lo}..{self.hi}{note}]"

    def cell_fraction(self) -> float:
        """Fraction of the array's cells inside the (clamped) box."""
        meta = self.meta
        inside = 1
        for axis in range(meta.ndim):
            lo = max(self.lo[axis], meta.starts[axis])
            hi = min(self.hi[axis], meta.ends[axis] - 1)
            if lo > hi:
                return 0.0
            inside *= hi - lo + 1
        return inside / meta.num_cells if meta.num_cells else 0.0

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


class MatmulExecPlan:
    """Physical choices the optimizer attached to a :class:`MatmulOp`.

    ``kernel`` is the forced block-pair representation (``"dense"`` or
    ``"csr"``); ``balance`` swaps the k-shuffle and gather
    hash partitioners for nnz-balanced ones built from ``k_weights``
    and ``gather_weights`` (per-key modeled work, measured from the
    operands' per-chunk valid counts). The two imbalance figures are
    the max/mean gather load ratios hash vs balanced placement would
    produce — what the cost gate compared, and what ``explain``
    surfaces.
    """

    __slots__ = ("kernel", "balance", "k_weights", "gather_weights",
                 "imbalance_hash", "imbalance_nnz")

    def __init__(self, kernel, balance, k_weights, gather_weights,
                 imbalance_hash=1.0, imbalance_nnz=1.0):
        self.kernel = kernel
        self.balance = balance
        self.k_weights = k_weights
        self.gather_weights = gather_weights
        self.imbalance_hash = imbalance_hash
        self.imbalance_nnz = imbalance_nnz

    def describe(self) -> str:
        placement = (
            f"nnz-balanced skew {self.imbalance_hash:.2f}"
            f"->{self.imbalance_nnz:.2f}" if self.balance else "hash"
        )
        return f"kernel={self.kernel} placement={placement}"


class MatmulOp(LogicalOp):
    """Distributed block matrix multiply of two SpangleMatrix operands.

    The operands stay driver-side matrix handles; their own pending
    logical plans lower when this node does. ``exec_plan`` is the
    optimizer's :class:`MatmulExecPlan` (kernel + placement), or None
    for the density-gated default path.
    """

    name = "matmul"

    def __init__(self, left, right, local_join, meta, exec_plan=None):
        self.left = left
        self.right = right
        self.local_join = local_join
        self._meta = meta
        self.exec_plan = exec_plan

    @property
    def meta(self):
        return self._meta

    @property
    def children(self):
        return (self.left.array._logical, self.right.array._logical)

    def describe(self) -> str:
        kind = "local_join" if self.local_join else "shuffled"
        plan = (f" {self.exec_plan.describe()}"
                if self.exec_plan is not None else "")
        return f"matmul[{kind} {self.left.shape}x{self.right.shape}{plan}]"

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
# statistics: per-node output estimates for the cost model
# ----------------------------------------------------------------------

class Estimate:
    """Estimated shape of one node's output stream.

    ``chunks`` — surviving chunk records; ``valid`` — estimated valid
    cells across them; ``per_chunk`` — optional exact per-chunk valid
    counts (kept while ops preserve per-chunk validity structure,
    dropped once an estimate-only op intervenes). ``density`` and
    ``payload_bytes`` derive from those.
    """

    __slots__ = ("chunks", "valid", "meta", "per_chunk")

    def __init__(self, chunks, valid, meta, per_chunk=None):
        self.chunks = max(float(chunks), 0.0)
        self.valid = max(float(valid), 0.0)
        self.meta = meta
        self.per_chunk = per_chunk

    @property
    def density(self) -> float:
        cells = self.chunks * self.meta.cells_per_chunk
        return min(self.valid / cells, 1.0) if cells else 0.0

    @property
    def dense_bytes(self) -> float:
        """Payload bytes if every surviving chunk were DENSE."""
        return (self.chunks * self.meta.cells_per_chunk
                * self.meta.dtype.itemsize)

    @property
    def payload_bytes(self) -> float:
        """Estimated bytes actually stored (density-scaled payloads
        plus one bitmask word stream per chunk)."""
        mask_bytes = self.chunks * self.meta.cells_per_chunk / 8.0
        return self.dense_bytes * self.density + mask_bytes


def estimate(node: LogicalOp) -> Estimate:
    """Recursive output estimate for one logical node."""
    if isinstance(node, SourceOp):
        meta = node.meta
        if node.valid_counts is not None:
            per_chunk = dict(node.valid_counts)
            return Estimate(len(per_chunk), sum(per_chunk.values()),
                            meta, per_chunk)
        return Estimate(meta.num_chunks,
                        meta.num_chunks * meta.cells_per_chunk, meta)
    if isinstance(node, MatmulOp):
        meta = node.meta
        left = estimate(node.children[0])
        right = estimate(node.children[1])
        # a cell of the product is nonzero unless all k contributions
        # vanish: P(nonzero) = 1 - (1 - da·db)^k at independent operand
        # densities (1.0 when both operands are dense or unknown)
        k_dim = max(int(node.left.shape[1]), 1)
        hit = min(left.density * right.density, 1.0)
        out_density = 1.0 - (1.0 - hit) ** k_dim
        return Estimate(meta.num_chunks,
                        meta.num_chunks * meta.cells_per_chunk
                        * min(max(out_density, 0.0), 1.0),
                        meta)
    child = estimate(node.children[0])
    if isinstance(node, (MapOp, ScalarOp, FoldedScalarOp, RepackOp,
                         ShuffleOp)):
        return child
    if isinstance(node, FilterOp):
        return Estimate(child.chunks,
                        child.valid * DEFAULT_FILTER_SELECTIVITY,
                        node.meta)
    if isinstance(node, SubarrayOp):
        meta = node.meta
        chunk_frac = (len(node.wanted) / meta.num_chunks
                      if meta.num_chunks else 0.0)
        cell_frac = node.cell_fraction()
        if child.per_chunk is not None:
            survivors = {cid: count
                         for cid, count in child.per_chunk.items()
                         if cid in node.wanted}
            # the box keeps cell_frac of the array; scale the surviving
            # chunks' counts by the box's share of *their* region
            keep = min(cell_frac / chunk_frac, 1.0) if chunk_frac else 0.0
            survivors = {cid: count * keep
                         for cid, count in survivors.items()}
            return Estimate(len(survivors), sum(survivors.values()),
                            meta, survivors)
        return Estimate(child.chunks * chunk_frac,
                        child.valid * cell_frac, meta)
    if isinstance(node, MaskApplyOp):
        return Estimate(child.chunks, child.valid, node.meta)
    if isinstance(node, ElementwiseOp):
        left = child
        right = estimate(node.children[1])
        if node.how == "and":
            chunks = min(left.chunks, right.chunks)
            valid = min(left.valid, right.valid)
        else:
            chunks = max(left.chunks, right.chunks)
            valid = min(left.valid + right.valid,
                        chunks * node.meta.cells_per_chunk)
        return Estimate(chunks, valid, node.meta)
    return child


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

def valid_counts_from_records(records) -> dict:
    """Per-chunk valid counts for driver-side record lists."""
    return {cid: int(chunk.valid_count) for cid, chunk in records}
