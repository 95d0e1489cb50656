"""ArrayRDD: a distributed array as an RDD of (chunk_id, Chunk) records.

The paper's central abstraction (Section III-B). An ArrayRDD inherits the
pair-RDD contract from the engine — fault tolerance, lazy evaluation,
partitioning — and adds the array operators of Section V: Subarray,
Filter, Join (via :meth:`combine`), the Aggregator framework, and the
matrix layer (package :mod:`repro.matrix`) builds on it.

Empty chunks are never materialized: any operation that leaves a chunk
with zero valid cells drops the record entirely, which is the paper's
memory-reduction policy.

An ArrayRDD is a base chunk RDD plus a pending
:class:`~repro.core.plan.ChunkPlan`. Chunk-local operators append a
kernel to the plan, which folds adjacent scalar kernels and moves a
subarray ahead of scalar arithmetic as it goes
(:meth:`ChunkPlan.then <repro.core.plan.ChunkPlan.then>`). Wide
operators — :meth:`combine`, :meth:`partition_by`, a MaskRDD's
``apply_to``, the matrix product — build their (lazy) engine RDDs from
the operands' :attr:`rdd` when called. Reading :attr:`rdd` is the plan
barrier: the plan compiles once into a single fused ``map_partitions``
pass. ``cache()`` and ``materialize()`` are plan barriers too: the
cached data is the computed result. ``aggregate`` and ``count_valid``
are not: they compile the plan with themselves as its last stage (a
*sink*), so the chunks they reduce are never built. ``explain()``
renders the plan without compiling anything into the array's state.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from repro.core import mapper
from repro.core.aggregates import combine_kernel_for, resolve_aggregator
from repro.core.chunk import MODES, Chunk, ChunkMode, choose_modes
from repro.core.metadata import ArrayMetadata
from repro.core.plan import (
    ChunkPlan,
    DropEmpty,
    ElementwiseSource,
    FilterKernel,
    MapValuesKernel,
    MaskAndKernel,
    RepackKernel,
    ScalarOpKernel,
)
from repro.engine import HashPartitioner, RecordBatch, StorageLevel
from repro.engine.partitioner import HASH_MODULUS as _KEY_LIMIT
from repro.engine.partitioner import BlockPartitioner
from repro.errors import ArrayError, ModeError, ShapeMismatchError


class _Aggregate:
    """Sink of ``aggregate``: one partial state per partition, its
    chunks' values folded in chunk order."""

    __slots__ = ("agg",)
    label = "aggregate"

    def __init__(self, agg):
        self.agg = agg

    def __call__(self, batch):
        agg = self.agg
        state = agg.initialize()
        for values in batch.chunk_values():
            state = agg.accumulate(state, values)
        return [state]


class _CountValid:
    """Sink of ``count_valid``: the partition's valid cells."""

    label = "count_valid"

    def __call__(self, batch):
        return [int(batch.starts[-1])]


class _CellPartials:
    """Sink of ``aggregate_cells``: each chunk's cells fold into one
    state per output cell key, in one ``accumulate_groups`` for the
    partition: one :class:`RecordBatch` of keys and packed states, or
    ``(key, state)`` records if the states are a list (a user's)."""

    __slots__ = ("meta", "out_meta", "axes", "window", "agg")
    label = "cell_partials"

    def __init__(self, meta, out_meta, axes, window, agg):
        self.meta = meta
        self.out_meta = out_meta
        self.axes = tuple(axes)
        self.window = tuple(window)
        self.agg = agg

    def _keys(self, chunk_id, offsets) -> np.ndarray:
        """Output keys of chunk ``chunk_id``'s cells at ``offsets``: a sum
        of per-axis terms (Algorithm 1 on the output metadata), those of
        the leading axes (about sqrt(cells)) and the rest summed into two
        small tables, read at ``divmod(offset, low.size)``."""
        meta, out, shape = self.meta, self.out_meta, self.meta.chunk_shape
        split = next(k for k in range(meta.ndim + 1)
                     if int(np.prod(shape[:k])) ** 2 >= meta.cells_per_chunk)
        origin = mapper.chunk_origin(meta, chunk_id)
        tables = [np.zeros(shape[:split], dtype=np.int64),
                  np.zeros(shape[split:], dtype=np.int64)]
        chunk_stride, offset_stride = out.cells_per_chunk, 1
        for j, axis in enumerate(self.axes):
            pos = (np.arange(shape[axis], dtype=np.int64)
                   + (origin[axis] - meta.starts[axis])) // self.window[j]
            grid_pos, local = np.divmod(pos, out.chunk_shape[j])
            table, at = (tables[0], axis) if axis < split \
                else (tables[1], axis - split)
            table += (grid_pos * chunk_stride + local * offset_stride) \
                .reshape([-1 if a == at else 1 for a in range(table.ndim)])
            chunk_stride *= out.chunk_grid[j]
            offset_stride *= out.chunk_shape[j]
        low, high = (table.ravel(order="F") for table in tables)
        keys = low[offsets % low.size]
        if max(self.axes) >= split:
            keys += high[offsets // low.size]
        return keys

    def __call__(self, batch):
        if not batch.starts[-1]:
            return []
        local = batch.offsets - np.repeat(batch.base, batch.counts())
        keys, order, new = [], [], []
        for chunk_id, offsets, first in zip(
                batch.ids, batch.views(local), batch.starts.tolist()):
            if offsets.size:
                chunk_keys = self._keys(chunk_id, offsets)
                # the same stable order, radix-sorted when it fits uint16
                rel = chunk_keys - chunk_keys.min()
                sort = np.argsort(rel if rel.max() >> 16
                                  else rel.astype(np.uint16), kind="stable")
                keys.append(chunk_keys[sort])
                order.append(sort + first)
                # a group starts at a chunk's first cell or a new key
                new.append(np.empty(offsets.size, dtype=bool))
                new[-1][0] = True
                np.not_equal(keys[-1][1:], keys[-1][:-1], out=new[-1][1:])
        starts = np.flatnonzero(np.concatenate(new))
        keys = np.concatenate(keys)[starts]
        states = self.agg.accumulate_groups(
            batch.values[np.concatenate(order)], starts)
        return list(zip(keys.tolist(), states)) \
            if isinstance(states, list) else RecordBatch(keys, states)


class _BuildChunks:
    """Reduce side of ``aggregate_cells``: evaluate the merged states
    in one ``evaluate_groups`` and build this partition's chunks."""

    __slots__ = ("meta", "agg")

    def __init__(self, meta, agg):
        self.meta = meta
        self.agg = agg

    def __call__(self, part):
        if not part:
            return
        keys, states = (part.keys, part.values) \
            if isinstance(part, RecordBatch) else zip(*part)
        values = self.agg.evaluate_groups(states)
        if isinstance(values, list):
            keep = [value is not None for value in values]  # else invalid
            keys = np.array(keys, dtype=np.int64)[keep]
            values = np.array([value for value in values
                               if value is not None], dtype=np.float64)
        cells_per_chunk = self.meta.cells_per_chunk
        for chunk_id, offsets, cell_values in mapper.runs_by_chunk(
                *np.divmod(keys, cells_per_chunk), values):
            yield chunk_id, Chunk.from_sparse(cells_per_chunk, offsets,
                                              cell_values)


def aggregate_cells(array, out_meta, agg, axes, window,
                    num_partitions) -> "ArrayRDD":
    """Group-by aggregation (Section V-B) into the ``out_meta`` array.

    Input cell ``c`` folds into output cell ``(c[axes] - starts[axes])
    // window + out_meta.starts``, keyed ``out_chunk_id *
    cells_per_chunk + local_offset``. The partials sink the array's
    pending plan, and one ``reduce_by_key`` over their columns places
    keys by output chunk ID; each reduce partition builds its chunks.
    """
    cells_per_chunk = out_meta.cells_per_chunk
    if out_meta.num_chunks * cells_per_chunk >= _KEY_LIMIT:
        raise ArrayError(
            f"aggregation output has {out_meta.num_chunks} chunks of "
            f"{cells_per_chunk} cells: its cell keys reach 2**61 - 1")
    by_chunk = BlockPartitioner(num_partitions, divisor=cells_per_chunk)
    chunks = array._reduce(_CellPartials(array.meta, out_meta, axes,
                                         window, agg)) \
        .reduce_by_key(agg.merge, partitioner=by_chunk,
                       combine_kernel=combine_kernel_for(agg)) \
        .map_partitions(_BuildChunks(out_meta, agg))
    chunks.partitioner = HashPartitioner(num_partitions)
    return ArrayRDD(chunks, out_meta, array.context)


def has_cells(kv) -> bool:
    """Whether a ``(chunk_id, Chunk)`` record keeps a valid cell."""
    return kv[1].valid_count > 0


class ArrayRDD:
    """A lazily-evaluated, chunked, distributed array."""

    def __init__(self, rdd, meta: ArrayMetadata, context):
        self._base = rdd
        self._plan = ChunkPlan.identity()
        self._compiled = None
        #: the IDs the driver knows this array's chunks are among (None:
        #: any of ``meta``'s); they price the plan's rewrites
        self._chunk_ids = None
        #: chunk records the plan's rewrites keep out of kernels
        self._pruned = 0
        self.meta = meta
        self.context = context

    @property
    def rdd(self):
        """The underlying chunk RDD, with the pending plan compiled in.

        Accessing this is the plan barrier: actions, wide operators and
        external consumers all read it. The plan compiles to one fused
        ``map_partitions`` pass, recording the rewrites that fired, and
        the result is memoized, so repeat actions reuse the same
        compiled RDD and its cache entries.
        """
        if self._plan.is_identity:
            return self._base
        if self._compiled is None:
            self._compiled = self._lower()
        return self._compiled

    def _lower(self, sink=None):
        """Compile the pending plan over the base, ending in ``sink``
        (see :meth:`ChunkPlan.compile`), recording its rewrites."""
        plan, metrics = self._plan, self.context.metrics
        if plan.rules:
            metrics.add(optimizer_rules_fired=len(plan.rules),
                        optimizer_chunks_pruned=self._pruned)
        return plan.compile(self._base, metrics, sink)

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
        if mode is not None and mode not in MODES:
            raise ModeError(f"unknown chunk mode {mode!r}")
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
        return cls._distribute(context, _cut(meta, array, valid, mode),
                               meta, num_partitions)

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
        # driver-side creation knows every stored chunk ID for free
        out._chunk_ids = frozenset(cid for cid, _chunk in records)
        return out

    @classmethod
    def from_chunks(cls, context, chunk_records, meta,
                    num_partitions=None) -> "ArrayRDD":
        """Wrap explicit ``(chunk_id, Chunk)`` records."""
        records = [(cid, c) for cid, c in chunk_records
                   if c.valid_count > 0]
        return cls._distribute(context, records, meta, num_partitions)

    def _derive(self, base, plan, chunk_ids) -> "ArrayRDD":
        """An array of this geometry: ``plan`` pending over ``base``."""
        out = ArrayRDD(base, self.meta, self.context)
        out._plan = plan
        out._chunk_ids = chunk_ids
        return out

    def _chunk_count(self) -> int:
        if self._chunk_ids is None:
            return self.meta.num_chunks
        return len(self._chunk_ids)

    def _then(self, kernel) -> "ArrayRDD":
        """One more kernel on the pending plan (no RDD is built yet)."""
        chunk_ids = self._chunk_ids
        if isinstance(kernel, MaskAndKernel):
            chunk_ids = kernel.wanted if chunk_ids is None \
                else chunk_ids & kernel.wanted
        out = self._derive(self._base, self._plan.then(kernel), chunk_ids)
        out._pruned = self._pruned
        if out._plan.rules != self._plan.rules:
            # chunk records kept out of kernels: a folded scalar kernel
            # no longer runs alone, and a hoisted box drops chunks
            # before the scalar kernel sees them
            flowing = self._chunk_count()
            if out._plan.rules[-1] == "subarray_before_scalar":
                flowing -= out._chunk_count()
            out._pruned += flowing
        return out

    def _reduce(self, sink):
        """The RDD of ``sink(batch)`` per partition: the pending plan's
        fused pass with the reduction ``sink`` in place of its encode.
        A persisted compiled RDD is read, not recomputed."""
        compiled = self._compiled
        if self._plan.is_identity or (
                compiled is not None
                and compiled.storage_level is not StorageLevel.NONE):
            return ChunkPlan.identity().compile(
                self.rdd, self.context.metrics, sink)
        return self._lower(sink)

    def _collapse(self):
        """Compile the pending plan into the base (a plan barrier).

        After this, operators chain off the compiled RDD — required
        before ``cache()`` so the cached partitions hold the computed
        chunks, not the pre-plan input.
        """
        rdd = self._base = self.rdd
        self._plan = ChunkPlan.identity()
        self._compiled = None
        self._pruned = 0
        return rdd

    # ------------------------------------------------------------------
    # basic actions
    # ------------------------------------------------------------------

    def num_chunks_materialized(self) -> int:
        return self.rdd.count()

    def count_valid(self) -> int:
        return sum(self._reduce(_CountValid()).collect())

    def memory_bytes(self) -> int:
        """Total in-memory footprint of all chunks (payloads + masks)."""
        return self.rdd.values().map(attrgetter("nbytes")).sum()

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
        """Drop the cached blocks of the RDD :attr:`rdd` returns — not
        those of an array this one derives from."""
        if self._plan.is_identity:
            self._base.unpersist()
        elif self._compiled is not None:
            self._compiled.unpersist()
        return self

    def explain(self) -> str:
        """Render the pending plan without compiling it into the array.

        Shows the plan as built over its base RDD, the rewrites that
        fired while it was built, and the physical stage plan it would
        compile to. Purely an inspection: nothing is memoized and no
        fusion or rewrite counters are recorded.
        """
        from repro.engine import explain as explain_mod

        plan = self._plan
        rules = ", ".join(plan.rules) or "none"
        return "\n".join([
            "Plan: " + " → ".join([self._base.name]
                                  + plan.stage_labels()),
            f"Rewrites: {len(plan.rules)} fired ({rules}); "
            f"{self._pruned} chunk records pruned",
            "Physical plan:",
            explain_mod.explain(plan.compile(self._base)),
        ])

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
        return self._then(MapValuesKernel(func))

    def filter(self, predicate) -> "ArrayRDD":
        """Invalidate cells whose value fails ``predicate(values)``.

        ``predicate`` is vectorized: it receives a value vector and
        returns booleans. Chunks left with no valid cell are dropped.
        """
        return self._then(FilterKernel(predicate))

    def repack(self) -> "ArrayRDD":
        """Re-apply the density mode policy to every chunk.

        Filters and masks shrink validity without re-choosing the
        storage mode; repacking re-runs :func:`~repro.core.chunk.choose_mode`
        on each chunk's current density, so a DENSE chunk that a filter
        left 5% valid re-encodes SPARSE (or SUPER_SPARSE). The kernel
        merely retargets the fused pass's final encode — zero extra passes;
        ``chunks_repacked`` in the metrics counts the conversions.
        """
        return self._then(RepackKernel())

    def subarray(self, lo, hi) -> "ArrayRDD":
        """Keep cells inside the closed coordinate box ``[lo, hi]``.

        Implements Fig. 4a: select intersecting chunks by ID (a metadata
        operation — no scan), then AND each chunk's bitmask with the
        virtual bitmask of the range.
        """
        return self._then(MaskAndKernel(
            self.meta, tuple(int(c) for c in lo),
            tuple(int(c) for c in hi)))

    def partition_by(self, partitioner) -> "ArrayRDD":
        """Redistribute chunk records under an explicit partitioner.

        The engine's ``partition_by`` over :attr:`rdd`: a no-op at
        execution time when the records already carry an equal
        partitioner.
        """
        return self._derive(self.rdd.partition_by(partitioner),
                            ChunkPlan.identity(), self._chunk_ids)

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
        # the merge is a plan *source*, so the drop-empty step and any
        # trailing chunk-local operators fuse into one pass
        left, right = self.rdd, other.rdd
        joined = left.join(right) if how == "and" \
            else left.full_outer_join(right)
        ids, other_ids = self._chunk_ids, other._chunk_ids
        if ids is not None and other_ids is not None:
            ids = ids & other_ids if how == "and" else ids | other_ids
        else:
            ids = None
        source = ElementwiseSource(op, how, fill,
                                   self.meta.cells_per_chunk,
                                   self.meta.dtype)
        return self._derive(joined, ChunkPlan(source, (DropEmpty(),)),
                            ids)

    def aggregate(self, aggregator="sum"):
        """Collapse the whole array to one value with an Aggregator."""
        agg = resolve_aggregator(aggregator)
        states = self._reduce(_Aggregate(agg)).collect()
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
        return self._then(ScalarOpKernel(op, scalar, reflected=reflected,
                                         name=name))

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


def _cut(meta: ArrayMetadata, array, valid, mode) -> list:
    """The ``(chunk_id, Chunk)`` records of ``array``'s non-empty chunks,
    cut in one pass: counts, modes, mask words and the compressed
    chunks' values take one numpy call each over the whole grid; only a
    DENSE payload is sliced per chunk, as one block copy."""
    rows = mapper.chunk_major(meta, valid)
    counts = np.count_nonzero(rows, axis=1)
    ids = np.flatnonzero(counts)
    cells = meta.cells_per_chunk
    modes = choose_modes(counts[ids], cells) if mode is None \
        else np.full(ids.size, MODES.index(mode))
    packed = np.packbits(rows, axis=1, bitorder="little")
    words = np.ascontiguousarray(  # rows may be a Fortran-ordered view
        np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))).view(np.uint64)
    compressed = ids[modes != MODES.index(ChunkMode.DENSE)]
    cell = np.flatnonzero(rows if compressed.size == rows.shape[0]
                          else rows[compressed])
    base, local = mapper.chunk_major_index(meta)
    source = base[compressed][cell // cells] + local[cell % cells]
    payloads = iter(np.split(array.reshape(-1)[source],
                             np.cumsum(counts[compressed])[:-1]))
    records = []
    for chunk_id, index in zip(ids.tolist(), modes.tolist()):
        kind = MODES[index]
        if kind is ChunkMode.DENSE:
            sel, local_shape = _chunk_selection(meta, chunk_id)
            block = np.zeros(meta.chunk_shape, dtype=array.dtype)
            block[tuple(slice(0, n) for n in local_shape)] = array[sel]
            payload = block.ravel(order="F")
            if counts[chunk_id] < cells:
                payload[~rows[chunk_id]] = 0
        else:
            payload = next(payloads).copy()
        records.append((chunk_id, Chunk.assemble(
            kind, cells, words[chunk_id].copy(), payload)))
    return records
