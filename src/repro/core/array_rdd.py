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

from operator import itemgetter

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
from repro.engine.batches import HASH_MODULUS as _KEY_LIMIT
from repro.engine.partitioner import ExplicitPartitioner
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


class _CellPartials:
    """Map side of ``aggregate_cells``: each chunk's valid cells fold
    into one state per output cell key (``accumulate_groups``)."""

    __slots__ = ("meta", "out_meta", "axes", "window", "agg")

    def __init__(self, meta, out_meta, axes, window, agg):
        self.meta = meta
        self.out_meta = out_meta
        self.axes = tuple(axes)
        self.window = tuple(window)
        self.agg = agg

    def _keys(self, chunk_id, offsets) -> np.ndarray:
        """Output keys of the cells at ``offsets`` of chunk ``chunk_id``:
        Algorithm 1 on the output metadata is a sum of per-axis terms,
        each looked up by the cell's local coordinate on that axis."""
        meta, out = self.meta, self.out_meta
        origin = mapper.chunk_origin(meta, chunk_id)
        keys = np.zeros(offsets.size, dtype=np.int64)
        chunk_stride, offset_stride = out.cells_per_chunk, 1
        for j, axis in enumerate(self.axes):
            extent = meta.chunk_shape[axis]
            pos = (np.arange(extent, dtype=np.int64)
                   + (origin[axis] - meta.starts[axis])) // self.window[j]
            grid_pos, local = np.divmod(pos, out.chunk_shape[j])
            term = grid_pos * chunk_stride + local * offset_stride
            in_stride = int(np.prod(meta.chunk_shape[:axis]))
            keys += term[offsets // in_stride % extent]
            chunk_stride *= out.chunk_grid[j]
            offset_stride *= out.chunk_shape[j]
        return keys

    def __call__(self, part):
        records = []
        for chunk_id, chunk in part:
            offsets = chunk.indices()
            if offsets.size == 0:
                continue
            keys = self._keys(chunk_id, offsets)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            states = self.agg.accumulate_groups(chunk.values()[order],
                                                starts)
            records.extend(zip(keys[starts].tolist(), states))
        return records


class _BuildChunks:
    """Reduce side of ``aggregate_cells``: evaluate the merged states
    and build the output chunks this partition owns."""

    __slots__ = ("meta", "agg")

    def __init__(self, meta, agg):
        self.meta = meta
        self.agg = agg

    def __call__(self, part):
        if not part:
            return
        keys = np.fromiter(map(itemgetter(0), part), dtype=np.int64,
                           count=len(part))
        values = list(map(self.agg.evaluate, map(itemgetter(1), part)))
        if None in values:
            # a state that evaluates to None leaves its cell invalid
            keys = keys[[value is not None for value in values]]
            values = [value for value in values if value is not None]
        values = np.array(values, dtype=np.float64)
        order = np.argsort(keys)
        keys, values = keys[order], values[order]
        cells_per_chunk = self.meta.cells_per_chunk
        chunk_ids, offsets = np.divmod(keys, cells_per_chunk)
        bounds = np.flatnonzero(np.diff(chunk_ids, prepend=-1))
        for lo, hi in zip(bounds.tolist(), bounds[1:].tolist() + [None]):
            yield int(chunk_ids[lo]), Chunk.from_sparse(
                cells_per_chunk, offsets[lo:hi], values[lo:hi])


def aggregate_cells(array, out_meta, agg, axes, window,
                    num_partitions) -> "ArrayRDD":
    """Group-by aggregation (Section V-B) into the ``out_meta`` array.

    Input cell ``c`` folds into output cell ``(c[axes] - starts[axes])
    // window + out_meta.starts``, keyed ``out_chunk_id *
    cells_per_chunk + local_offset``. One ``reduce_by_key`` on plain
    ``(key, state)`` records (so the columnar shuffle packs them) places
    keys by output chunk ID; each reduce partition builds its chunks.
    """
    cells_per_chunk = out_meta.cells_per_chunk
    if out_meta.num_chunks * cells_per_chunk >= _KEY_LIMIT:
        raise ArrayError(
            f"aggregation output has {out_meta.num_chunks} chunks of "
            f"{cells_per_chunk} cells: its cell keys reach 2**61 - 1")
    by_chunk = ExplicitPartitioner(
        num_partitions, lambda key: key // cells_per_chunk,
        tag=("output-chunk", cells_per_chunk),
        array_func=lambda keys: keys // cells_per_chunk)
    chunks = array.rdd \
        .map_partitions(_CellPartials(array.meta, out_meta, axes, window,
                                      agg)) \
        .reduce_by_key(agg.merge, partitioner=by_chunk,
                       combine_kernel=combine_kernel_for(agg)) \
        .map_partitions(_BuildChunks(out_meta, agg))
    chunks.partitioner = HashPartitioner(num_partitions)
    return ArrayRDD(chunks, out_meta, array.context)


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

        ``dims`` are the dimension names or indices (negative ones count
        from the end) to *keep*, in output order; the other axes
        collapse. Chunks fold into per-output-cell states with the
        aggregator's grouped form and one shuffle keyed by output cell
        merges them into the output chunks (:func:`aggregate_cells`) —
        the "new schema" of Section V-B. Empty, repeated or out-of-range
        ``dims`` raise :class:`ArrayError`.
        """
        meta = self.meta
        axes = []
        for d in dims:
            axis = meta.dim_index(d) if isinstance(d, str) else int(d)
            if not -meta.ndim <= axis < meta.ndim:
                raise ArrayError(f"bad group dimensions: {dims}")
            axes.append(axis % meta.ndim)
        if len(set(axes)) != len(axes) or not axes:
            raise ArrayError(f"bad group dimensions: {dims}")
        agg = resolve_aggregator(aggregator)
        new_shape = tuple(meta.shape[a] for a in axes)
        if group_chunk_shape is None:
            group_chunk_shape = tuple(
                min(meta.chunk_shape[a], new_shape[i])
                for i, a in enumerate(axes)
            )
        new_meta = ArrayMetadata(
            new_shape, group_chunk_shape,
            starts=tuple(meta.starts[a] for a in axes),
            dim_names=tuple(meta.dim_names[a] for a in axes),
            dtype=np.float64, attribute=f"{agg.name}_{meta.attribute}")
        return aggregate_cells(self, new_meta, agg, axes, (1,) * len(axes),
                               self.context.default_parallelism)

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
