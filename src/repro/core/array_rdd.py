"""ArrayRDD: a distributed array as an RDD of (chunk_id, Chunk) records.

The paper's central abstraction (Section III-B). An ArrayRDD inherits the
pair-RDD contract from the engine — fault tolerance, lazy evaluation,
partitioning — and adds the array operators of Section V: Subarray,
Filter, Join (via :meth:`combine`), the Aggregator framework, and the
matrix layer (package :mod:`repro.matrix`) builds on it.

Empty chunks are never materialized: any operation that leaves a chunk
with zero valid cells drops the record entirely, which is the paper's
memory-reduction policy.

Operators do not touch the engine eagerly: they *record*
:class:`~repro.core.logical.LogicalOp` nodes. Reading :attr:`rdd` —
which every action and wide operator does — is the plan barrier: the
recorded tree is rewritten by the rule-based optimizer
(:mod:`repro.core.optimizer`) and lowered back to ChunkPlan kernel
chains (compiled into single fused ``map_partitions`` passes) and
engine joins/shuffles. ``cache()`` and ``materialize()`` are plan
barriers too: they collapse the pending tree so the cached data is the
computed result. ``explain()`` renders the logical/optimized/physical
plans without compiling anything into the array's state.
"""

from __future__ import annotations

import numpy as np

from repro.core import mapper
from repro.core.aggregates import combine_kernel_for, resolve_aggregator
from repro.core.chunk import Chunk, ChunkMode
from repro.core.logical import (
    ElementwiseOp,
    FilterOp,
    MapOp,
    RepackOp,
    ScalarOp,
    ShuffleOp,
    SourceOp,
    SubarrayOp,
    chunk_ids_from_records,
    lower_to_rdd,
    render_tree,
)
from repro.core.metadata import ArrayMetadata
from repro.engine import HashPartitioner
from repro.errors import ArrayError, ShapeMismatchError


# ----------------------------------------------------------------------
# module-level task callables
# ----------------------------------------------------------------------
# Module-level, so process-backend tasks pickle them by reference.

class _ChunkAggregate:
    """Map side of ``aggregate``: one partial state per partition."""

    __slots__ = ("agg",)

    def __init__(self, agg):
        self.agg = agg

    def __call__(self, part):
        agg = self.agg
        state = agg.initialize()
        for _chunk_id, chunk in part:
            state = agg.accumulate(state, chunk.values())
        return [state]


class _GroupPartials:
    """Map side of ``aggregate_by``: per-group partial states per chunk."""

    __slots__ = ("meta", "axes", "agg", "axis_sizes", "axis_starts",
                 "linear_keys")

    def __init__(self, meta, axes, agg, axis_sizes, axis_starts,
                 linear_keys):
        self.meta = meta
        self.axes = axes
        self.agg = agg
        self.axis_sizes = axis_sizes
        self.axis_starts = axis_starts
        self.linear_keys = linear_keys

    def __call__(self, part):
        meta = self.meta
        agg = self.agg
        axes = self.axes
        for chunk_id, chunk in part:
            offsets = chunk.indices()
            if offsets.size == 0:
                continue
            coords = mapper.coords_for_offsets_array(meta, chunk_id,
                                                     offsets)
            labels = coords[:, list(axes)]
            values = chunk.values()
            order = np.lexsort(labels.T[::-1])
            labels = labels[order]
            values = values[order]
            if self.linear_keys:
                encoded = np.zeros(labels.shape[0], dtype=np.int64)
                for j, (size, base) in enumerate(
                        zip(self.axis_sizes, self.axis_starts)):
                    encoded = encoded * size + (labels[:, j] - base)
            boundaries = np.ones(labels.shape[0], dtype=bool)
            boundaries[1:] = (labels[1:] != labels[:-1]).any(axis=1)
            group_starts = np.nonzero(boundaries)[0]
            group_ends = np.append(group_starts[1:], labels.shape[0])
            for start, end in zip(group_starts, group_ends):
                state = agg.accumulate(agg.initialize(),
                                       values[start:end])
                if self.linear_keys:
                    yield int(encoded[start]), state
                else:
                    yield tuple(labels[start]), state


class _DecodeGroupKey:
    """Reduce side of ``aggregate_by``: mixed-radix key → coordinates."""

    __slots__ = ("axis_sizes", "axis_starts")

    def __init__(self, axis_sizes, axis_starts):
        self.axis_sizes = axis_sizes
        self.axis_starts = axis_starts

    def __call__(self, record):
        key, value = record
        sizes = self.axis_sizes
        coords = [0] * len(sizes)
        for j in range(len(sizes) - 1, -1, -1):
            key, remainder = divmod(key, sizes[j])
            coords[j] = remainder + self.axis_starts[j]
        return tuple(coords), value


def _chunk_valid_count(kv) -> int:
    return kv[1].valid_count


def _chunk_nbytes(kv) -> int:
    return kv[1].nbytes


class ArrayRDD:
    """A lazily-evaluated, chunked, distributed array."""

    def __init__(self, rdd, meta: ArrayMetadata, context, logical=None):
        if logical is None:
            logical = SourceOp(rdd, meta)
        self._logical = logical
        self._compiled = None
        self.meta = meta
        self.context = context

    @property
    def rdd(self):
        """The underlying chunk RDD, with the recorded plan lowered in.

        Accessing this is the plan barrier: actions, wide operators and
        external consumers all read it. The recorded logical tree is
        rewritten by the rule-based optimizer, then lowered —
        chunk-local chains compile to one fused ``map_partitions`` pass
        each — and the result is memoized, so repeat actions reuse the
        same compiled RDD and its cache entries.
        """
        node = self._logical
        if isinstance(node, SourceOp):
            return node.rdd
        if self._compiled is None:
            from repro.core import optimizer as optimizer_mod

            metrics = self.context.metrics
            node, fired, pruned = optimizer_mod.optimize(node)
            if fired:
                metrics.add(optimizer_rules_fired=len(fired),
                            optimizer_chunks_pruned=pruned)
            self._compiled = lower_to_rdd(node, self.context, metrics)
        return self._compiled

    @rdd.setter
    def rdd(self, value):
        self._logical = SourceOp(value, self.meta)
        self._compiled = None

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    @classmethod
    def from_numpy(cls, context, array, chunk_shape, valid=None,
                   num_partitions=None, mode: ChunkMode = None,
                   starts=None, dim_names=None,
                   attribute="value") -> "ArrayRDD":
        """Chunk a driver-side numpy array into an ArrayRDD.

        ``valid`` marks which cells carry real data (None = all). Cells
        with NaN values are additionally treated as null, matching the
        paper's NaN discussion in Section II-B.
        """
        array = np.asarray(array)
        meta = ArrayMetadata(array.shape, chunk_shape, starts=starts,
                             dim_names=dim_names, dtype=array.dtype,
                             attribute=attribute)
        if valid is None:
            valid = np.ones(array.shape, dtype=bool)
        else:
            valid = np.asarray(valid, dtype=bool)
            if valid.shape != array.shape:
                raise ShapeMismatchError(
                    f"valid shape {valid.shape} != array shape "
                    f"{array.shape}"
                )
        if np.issubdtype(array.dtype, np.floating):
            valid = valid & ~np.isnan(array)
        records = []
        for chunk_id in range(meta.num_chunks):
            chunk = _chunk_from_region(meta, chunk_id, array, valid, mode)
            if chunk is not None:
                records.append((chunk_id, chunk))
        return cls._distribute(context, records, meta, num_partitions)

    @classmethod
    def _distribute(cls, context, records, meta,
                    num_partitions=None) -> "ArrayRDD":
        if num_partitions is None:
            num_partitions = context.default_parallelism
        partitioner = HashPartitioner(num_partitions)
        rdd = context.parallelize(records, num_partitions,
                                  partitioner=partitioner)
        rdd.partitioner = partitioner
        out = cls(rdd, meta, context)
        # driver-side creation knows every stored chunk ID for free;
        # the optimizer's pruned-chunk count is exact with them
        out._logical = SourceOp(rdd, meta,
                                chunk_ids_from_records(records))
        return out

    @classmethod
    def from_chunks(cls, context, chunk_records, meta,
                    num_partitions=None) -> "ArrayRDD":
        """Wrap explicit ``(chunk_id, Chunk)`` records."""
        records = [(cid, c) for cid, c in chunk_records
                   if c.valid_count > 0]
        return cls._distribute(context, records, meta, num_partitions)

    def _with_logical(self, node) -> "ArrayRDD":
        """Record one more logical node (no RDD is built yet)."""
        return ArrayRDD(None, self.meta, self.context, logical=node)

    def _collapse(self):
        """Force the recorded plan into a concrete RDD (a plan barrier).

        After this, subsequent operators chain off the lowered RDD —
        required before ``cache()`` so the cached partitions hold the
        computed chunks, not the pre-plan input.
        """
        rdd = self.rdd
        if not isinstance(self._logical, SourceOp):
            self._logical = SourceOp(rdd, self.meta)
            self._compiled = None
        return rdd

    # ------------------------------------------------------------------
    # basic actions
    # ------------------------------------------------------------------

    def num_chunks_materialized(self) -> int:
        return self.rdd.count()

    def count_valid(self) -> int:
        return self.rdd.map(_chunk_valid_count).fold(
            0, lambda a, b: a + b
        )

    def memory_bytes(self) -> int:
        """Total in-memory footprint of all chunks (payloads + masks)."""
        return self.rdd.map(_chunk_nbytes).fold(
            0, lambda a, b: a + b
        )

    def get(self, coords):
        """Point query: value at global coordinates, or None if invalid."""
        coords = self.meta.check_coords(coords)
        chunk_id = mapper.chunk_id_for_coords(self.meta, coords)
        offset = mapper.local_offset(self.meta, coords)
        hits = self.rdd.lookup(chunk_id)
        if not hits:
            return None
        return hits[0].get(offset)

    def collect_dense(self, fill=np.nan):
        """Materialize as ``(values, valid)`` numpy arrays on the driver.

        ``values`` takes the result type of the collected payloads and
        ``fill``, not ``meta.dtype``: scalar ops and ``map_values`` keep
        their input's metadata, so an int array's float results would
        otherwise be truncated.
        """
        records = self.rdd.collect()
        dtypes = {chunk.payload.dtype for _cid, chunk in records} \
            or {self.meta.dtype}
        values = np.full(self.meta.shape, fill,
                         dtype=np.result_type(*dtypes, type(fill)))
        valid = np.zeros(self.meta.shape, dtype=bool)
        for chunk_id, chunk in records:
            sel, local_shape = _chunk_selection(self.meta, chunk_id)
            dense = chunk.to_dense(fill).reshape(
                self.meta.chunk_shape, order="F")
            mask = chunk.valid_bools().reshape(
                self.meta.chunk_shape, order="F")
            clip = tuple(slice(0, n) for n in local_shape)
            values[sel] = dense[clip]
            valid[sel] = mask[clip]
        return values, valid

    def cache(self) -> "ArrayRDD":
        self._collapse().cache()
        return self

    def unpersist(self) -> "ArrayRDD":
        for rdd in _source_rdds(self._logical):
            rdd.unpersist()
        if self._compiled is not None:
            self._compiled.unpersist()
        return self

    def explain(self, optimized: bool = False) -> str:
        """Render the recorded plan without compiling it into the array.

        Shows the logical tree as written; with ``optimized=True`` also
        the rewritten tree, the rules that fired, and the estimated
        pruned-chunk count; then the physical stage plan of whichever
        tree would lower. Purely an inspection: nothing is memoized and
        no fusion/optimizer metrics are recorded.
        """
        from repro.core import optimizer as optimizer_mod
        from repro.engine import explain as explain_mod

        node = self._logical
        lines = ["Logical plan:", render_tree(node, 1)]
        if optimized:
            opt, fired, pruned = optimizer_mod.optimize(node)
            rules = ", ".join(fired) if fired else "none"
            lines.append(
                f"Optimized plan ({len(fired)} rules fired: {rules}; "
                f"~{pruned} chunks pruned):")
            lines.append(render_tree(opt, 1))
            node = opt
        lowered = lower_to_rdd(node, self.context, None)
        lines.append("Physical plan:")
        lines.append(explain_mod.explain(lowered))
        return "\n".join(lines)

    def materialize(self) -> "ArrayRDD":
        """Force computation now (cache + count)."""
        rdd = self._collapse()
        rdd.cache()
        rdd.count()
        return self

    # ------------------------------------------------------------------
    # operators (Section V)
    # ------------------------------------------------------------------

    def map_values(self, func) -> "ArrayRDD":
        """Apply a vectorized function to every valid value."""
        return self._with_logical(MapOp(self._logical, func))

    def filter(self, predicate) -> "ArrayRDD":
        """Invalidate cells whose value fails ``predicate(values)``.

        ``predicate`` is vectorized: it receives a value vector and
        returns booleans. Chunks left with no valid cell are dropped.
        """
        return self._with_logical(FilterOp(self._logical, predicate))

    def repack(self) -> "ArrayRDD":
        """Re-apply the density mode policy to every chunk.

        Filters and masks shrink validity without re-choosing the
        storage mode; repacking re-runs :func:`~repro.core.chunk.choose_mode`
        on each chunk's current density, so a DENSE chunk that a filter
        left 5% valid re-encodes SPARSE (or SUPER_SPARSE). The kernel
        merely retargets the fused pass's final encode — zero extra passes;
        ``chunks_repacked`` in the metrics counts the conversions.
        """
        return self._with_logical(RepackOp(self._logical))

    def subarray(self, lo, hi) -> "ArrayRDD":
        """Keep cells inside the closed coordinate box ``[lo, hi]``.

        Implements Fig. 4a: select intersecting chunks by ID (a metadata
        operation — no scan), then AND each chunk's bitmask with the
        virtual bitmask of the range.
        """
        return self._with_logical(SubarrayOp(self._logical, lo, hi))

    def partition_by(self, partitioner) -> "ArrayRDD":
        """Redistribute chunk records under an explicit partitioner.

        Recorded as a logical shuffle and lowered to the engine's
        ``partition_by``: a no-op at execution time when the records
        already carry an equal partitioner.
        """
        return self._with_logical(ShuffleOp(self._logical, partitioner))

    def repartition(self, num_partitions: int) -> "ArrayRDD":
        """Hash-redistribute into ``num_partitions`` partitions."""
        return self.partition_by(HashPartitioner(int(num_partitions)))

    def combine(self, other: "ArrayRDD", op, how: str = "and",
                fill=0) -> "ArrayRDD":
        """Cell-wise combination of two co-dimensional arrays.

        ``how="and"`` — and-join semantics: a result cell is valid only
        when both inputs are (chunks missing on either side vanish).
        ``how="or"`` — or-join: valid when either input is; the missing
        operand contributes ``fill``.

        When both ArrayRDDs share a partitioner the underlying join is
        narrow — no shuffle.
        """
        if other.meta.shape != self.meta.shape:
            raise ShapeMismatchError(
                f"shape mismatch: {self.meta.shape} vs {other.meta.shape}"
            )
        if other.meta.chunk_shape != self.meta.chunk_shape:
            raise ShapeMismatchError(
                f"chunk shape mismatch: {self.meta.chunk_shape} vs "
                f"{other.meta.chunk_shape}"
            )
        if how not in ("and", "or"):
            raise ArrayError(f"unknown join mode {how!r}; use 'and'/'or'")
        # recorded as a logical join; at lowering the merge becomes a
        # plan *source*, so the drop-empty step and any trailing
        # chunk-local operators fuse into one pass
        return self._with_logical(
            ElementwiseOp(self._logical, other._logical, op, how, fill,
                          self.meta))

    def aggregate(self, aggregator="sum"):
        """Collapse the whole array to one value with an Aggregator."""
        agg = resolve_aggregator(aggregator)
        states = self.rdd.map_partitions(_ChunkAggregate(agg)).collect()
        merged = agg.initialize()
        for state in states:
            merged = agg.merge(merged, state)
        return agg.evaluate(merged)

    def aggregate_by(self, dims, aggregator="sum",
                     group_chunk_shape=None) -> "ArrayRDD":
        """Group-by-dimensions aggregation producing a new, smaller array.

        ``dims`` are the dimension names (or indices) to *keep*; all
        other axes are collapsed. Each chunk computes partial states per
        group (map side), a shuffle merges them, and the result becomes
        a new ArrayRDD over the reduced schema — the "new schema" of
        Section V-B.
        """
        axes = tuple(
            self.meta.dim_index(d) if isinstance(d, str) else int(d)
            for d in dims
        )
        if len(set(axes)) != len(axes) or not axes:
            raise ArrayError(f"bad group dimensions: {dims}")
        agg = resolve_aggregator(aggregator)
        meta = self.meta
        axis_sizes = tuple(int(meta.shape[a]) for a in axes)
        axis_starts = tuple(int(meta.starts[a]) for a in axes)
        # group labels travel as one mixed-radix int64 key so the
        # columnar shuffle can vectorize partitioning and the combine;
        # absurdly large virtual shapes keep the tuple keys
        group_space = 1
        for size in axis_sizes:
            group_space *= size
        linear_keys = group_space < (1 << 62)

        partials = _GroupPartials(meta, axes, agg, axis_sizes,
                                  axis_starts, linear_keys)
        merged = self.rdd.map_partitions(partials) \
                         .reduce_by_key(agg.merge,
                                        combine_kernel=combine_kernel_for(agg)) \
                         .map_values(agg.evaluate)
        if linear_keys:
            merged = merged.map(_DecodeGroupKey(axis_sizes, axis_starts))

        new_shape = tuple(self.meta.shape[a] for a in axes)
        new_starts = tuple(self.meta.starts[a] for a in axes)
        new_names = tuple(self.meta.dim_names[a] for a in axes)
        if group_chunk_shape is None:
            group_chunk_shape = tuple(
                min(self.meta.chunk_shape[a], new_shape[i])
                for i, a in enumerate(axes)
            )
        new_meta = ArrayMetadata(new_shape, group_chunk_shape,
                                 starts=new_starts, dim_names=new_names,
                                 dtype=np.float64,
                                 attribute=f"{agg.name}_{meta.attribute}")
        from repro.core.ingest import array_rdd_from_cell_rdd

        return array_rdd_from_cell_rdd(self.context, merged, new_meta)

    # convenience scalar reductions -------------------------------------

    def sum(self):
        return self.aggregate("sum")

    def min(self):
        return self.aggregate("min")

    def max(self):
        return self.aggregate("max")

    def avg(self):
        return self.aggregate("avg")

    def head(self, n: int = 10) -> list:
        """First ``n`` valid cells as ``(coords, value)``, by chunk order.

        Stops computing partitions as soon as enough cells are found.
        """
        meta = self.meta
        taken = []
        for index in range(self.rdd.num_partitions):
            if len(taken) >= n:
                break
            for chunk_id, chunk in self.context.run_partition(self.rdd,
                                                              index):
                offsets = chunk.indices()[:n - len(taken)]
                coords = mapper.coords_for_offsets_array(meta, chunk_id,
                                                         offsets)
                for cell_coords, value in zip(
                        coords, chunk.values()[:offsets.size]):
                    taken.append((tuple(int(c) for c in cell_coords),
                                  value))
                if len(taken) >= n:
                    break
        return taken[:n]

    def show(self, n: int = 10) -> None:
        """Print a small sample of valid cells (Spark's ``show``)."""
        cells = self.head(n)
        header = " | ".join(f"{name:>8}" for name in self.meta.dim_names)
        print(f"{header} | {self.meta.attribute}")
        print("-" * (len(header) + 3 + len(self.meta.attribute)))
        for coords, value in cells:
            coord_text = " | ".join(f"{c:>8}" for c in coords)
            print(f"{coord_text} | {value:.6g}")
        total = self.count_valid()
        if total > n:
            print(f"... {total - len(cells):,} more valid cells")

    # ------------------------------------------------------------------
    # arithmetic operators
    # ------------------------------------------------------------------
    # Paper semantics (Section II-B): arithmetic with a null value is
    # null — so binary operators use and-join validity. Scalars map
    # over valid cells only. Use :meth:`combine` with ``how="or"`` for
    # union semantics explicitly.

    def _scalar_op(self, op, scalar, reflected, name) -> "ArrayRDD":
        return self._with_logical(
            ScalarOp(self._logical, op, scalar, reflected=reflected,
                     opname=name))

    def _binary_op(self, other, op, name):
        if isinstance(other, ArrayRDD):
            return self.combine(other, op, how="and")
        if np.isscalar(other):
            return self._scalar_op(op, other, False, name)
        return NotImplemented

    def _reflected_op(self, other, op, name):
        if np.isscalar(other):
            return self._scalar_op(op, other, True, name)
        return NotImplemented

    def __add__(self, other):
        return self._binary_op(other, np.add, "add")

    def __radd__(self, other):
        return self._reflected_op(other, np.add, "add")

    def __sub__(self, other):
        return self._binary_op(other, np.subtract, "sub")

    def __rsub__(self, other):
        return self._reflected_op(other, np.subtract, "sub")

    def __mul__(self, other):
        return self._binary_op(other, np.multiply, "mul")

    def __rmul__(self, other):
        return self._reflected_op(other, np.multiply, "mul")

    def __truediv__(self, other):
        return self._binary_op(other, np.divide, "div")

    def __rtruediv__(self, other):
        return self._reflected_op(other, np.divide, "div")

    def __pow__(self, other):
        return self._binary_op(other, np.power, "pow")

    def __rpow__(self, other):
        return self._reflected_op(other, np.power, "pow")

    def __neg__(self):
        return self.map_values(np.negative)

    def __abs__(self):
        return self.map_values(np.abs)

    def __repr__(self) -> str:
        return f"ArrayRDD({self.meta.describe()})"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _source_rdds(node) -> list:
    """Every concrete source RDD feeding a logical tree."""
    if isinstance(node, SourceOp):
        return [node.rdd]
    out = []
    for child in node.children:
        out.extend(_source_rdds(child))
    return out


def _chunk_selection(meta: ArrayMetadata, chunk_id: int):
    """Global slices of a chunk's in-bounds region + its clipped shape."""
    origin = mapper.chunk_origin(meta, chunk_id)
    sel = []
    local_shape = []
    for axis in range(meta.ndim):
        lo = origin[axis] - meta.starts[axis]
        hi = min(lo + meta.chunk_shape[axis], meta.shape[axis])
        sel.append(slice(lo, hi))
        local_shape.append(hi - lo)
    return tuple(sel), tuple(local_shape)


def _chunk_from_region(meta: ArrayMetadata, chunk_id: int, array, valid,
                       mode):
    """Cut one chunk out of a dense array; None when it has no valid cell."""
    sel, local_shape = _chunk_selection(meta, chunk_id)
    region_valid = valid[sel]
    if not region_valid.any():
        return None
    padded_values = np.zeros(meta.chunk_shape, dtype=array.dtype)
    padded_valid = np.zeros(meta.chunk_shape, dtype=bool)
    clip = tuple(slice(0, n) for n in local_shape)
    padded_values[clip] = array[sel]
    padded_valid[clip] = region_valid
    return Chunk.from_dense(padded_values.ravel(order="F"),
                            padded_valid.ravel(order="F"), mode=mode)
