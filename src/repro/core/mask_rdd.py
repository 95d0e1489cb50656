"""MaskRDD: the hidden, lazily-evaluated global validity mask.

Section III-B-1 of the paper: with more than one attribute, keeping every
attribute's bitmask consistent after each Filter/Subarray is expensive.
The MaskRDD records the *global* validity instead; operators transform
only the MaskRDD (cheap — one small RDD of bitmasks), and attributes are
reconciled on demand with a single AND per chunk.

Box restrictions are recorded, not executed: ``subarray`` appends to a
pending box list and reading :attr:`rdd` lowers the whole list as one
chunk-ID-pruning pass (so five chained subarrays cost one traversal,
with their wanted-sets intersected up front).

``filter_on``, ``and_`` and ``apply_to`` zip co-partitioned partitions
instead of joining chunk by chunk, stacking a partition's mask words so
predicate → bits, AND and ``any`` are one array operation each.
``apply_to`` leaves the AND to the result's pending
:class:`~repro.core.plan.ChunkPlan`, fused with the operators after it.

The with/without-MaskRDD performance gap is the paper's Fig. 9b.
"""

from __future__ import annotations

from operator import methodcaller

from repro.bitmask import Bitmask
from repro.bitmask.stacked import deposit, segments_any, stack_words
from repro.core import mapper
from repro.core.metadata import ArrayMetadata
from repro.core.plan import ChunkPlan, DropEmpty, MaskApplySource, each
from repro.engine import HashPartitioner
from repro.errors import ArrayError, ShapeMismatchError


def _co_partitioned(first, second):
    """Both under ``first``'s partitioner, else ``second``'s, else hash."""
    target = first.partitioner if first.partitioner is not None \
        else second.partitioner
    if target is None:
        target = HashPartitioner(max(first.num_partitions,
                                     second.num_partitions))
    return first.partition_by(target), second.partition_by(target)


def _or_masks(pair):
    """A full outer join's ``(left, right)`` masks ORed (None: absent)."""
    left, right = pair
    if left is None:
        return right
    if right is None:
        return left
    return left | right


def _paired(left, right) -> list:
    """Two co-partitioned partitions inner-joined, in ``left``'s order."""
    right = dict(right)
    return [(cid, (value, right[cid])) for cid, value in left
            if cid in right]


class _AndMasks:
    """Zipped partitions ANDed: masks with masks, or with the cells of
    attribute chunks passing ``predicate``. Emits ``(chunk_id, Bitmask)``
    per chunk left with a set bit, in the mask side's order."""

    def __init__(self, predicate=None):
        self.predicate = predicate

    def __call__(self, left, right):
        matched = _paired(left, right)
        if not matched:
            return []
        ids, pairs = zip(*matched)
        masks, others = zip(*pairs)
        for mask, other in pairs:
            bits = other.num_bits if self.predicate is None \
                else other.num_cells
            if bits != mask.num_bits:
                raise ArrayError(f"bitmask length mismatch: "
                                 f"{mask.num_bits} vs {bits}")
        words, bounds = stack_words(masks)
        if self.predicate is None:
            words &= stack_words(others)[0]
        else:
            keep = each(self.predicate,
                        [chunk.values() for chunk in others],
                        "filter predicate must return one bool per value",
                        bool)
            words &= deposit(stack_words(
                [chunk.flat_mask() for chunk in others])[0], keep)
        starts = bounds.tolist()
        return [(cid, Bitmask(mask.num_bits, words[lo:hi].copy()))
                for cid, mask, lo, hi, alive in zip(
                    ids, masks, starts, starts[1:],
                    segments_any(words, bounds).tolist())
                if alive]


class _RestrictMasks:
    """One pass applying every pending box to a partition of masks.

    Chunk-ID pruning uses the intersection of the boxes' wanted-sets —
    a chunk outside *any* box is skipped without touching its bitmask;
    boxes then AND in recorded order, exactly as the chained eager
    restrictions would.
    """

    __slots__ = ("meta", "boxes", "wanted")

    def __init__(self, meta, boxes):
        self.meta = meta
        self.boxes = tuple(boxes)
        wanted = None
        for lo, hi in self.boxes:
            ids = frozenset(mapper.chunk_ids_in_range(meta, lo, hi))
            wanted = ids if wanted is None else (wanted & ids)
        self.wanted = wanted if wanted is not None else frozenset()

    def __getstate__(self):
        return (self.meta, self.boxes, self.wanted)

    def __setstate__(self, state):
        self.meta, self.boxes, self.wanted = state

    def __call__(self, index, part):
        for chunk_id, mask in part:
            if chunk_id not in self.wanted:
                continue
            for lo, hi in self.boxes:
                if mapper.chunk_fully_inside(self.meta, chunk_id, lo,
                                             hi):
                    continue
                virtual = Bitmask.from_bools(
                    mapper.range_mask_for_chunk(self.meta, chunk_id,
                                                lo, hi))
                mask = mask & virtual
            if mask.any():
                yield chunk_id, mask


class MaskRDD:
    """An RDD of ``(chunk_id, Bitmask)`` describing valid cells globally."""

    def __init__(self, rdd, meta: ArrayMetadata, context, boxes=()):
        self._base_rdd = rdd
        self._boxes = tuple(boxes)
        self._compiled = None
        self.meta = meta
        self.context = context

    @property
    def rdd(self):
        """The mask RDD with every pending box restriction lowered in."""
        if not self._boxes:
            return self._base_rdd
        if self._compiled is None:
            self._compiled = self._base_rdd.map_partitions_with_index(
                _RestrictMasks(self.meta, self._boxes),
                preserves_partitioning=True)
        return self._compiled

    @rdd.setter
    def rdd(self, value):
        self._base_rdd = value
        self._boxes = ()
        self._compiled = None

    @property
    def partitioner(self):
        """Partitioner of the lowered mask (restrictions preserve it)."""
        return self._base_rdd.partitioner

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    @classmethod
    def from_array_rdd(cls, array_rdd) -> "MaskRDD":
        """Initial mask: exactly the validity of one attribute."""
        masks = array_rdd.rdd.map_values(methodcaller("flat_mask"))
        return cls(masks, array_rdd.meta, array_rdd.context)

    @classmethod
    def full(cls, context, meta: ArrayMetadata,
             num_partitions=None) -> "MaskRDD":
        """All in-bounds cells valid."""
        records = []
        for chunk_id in range(meta.num_chunks):
            inside = mapper.in_bounds_mask_for_chunk(meta, chunk_id)
            records.append((chunk_id, Bitmask.from_bools(inside)))
        if num_partitions is None:
            num_partitions = context.default_parallelism
        partitioner = HashPartitioner(num_partitions)
        rdd = context.parallelize(records, num_partitions,
                                  partitioner=partitioner)
        rdd.partitioner = partitioner
        return cls(rdd, meta, context)

    def _with_rdd(self, rdd) -> "MaskRDD":
        return MaskRDD(rdd, self.meta, self.context)

    # ------------------------------------------------------------------
    # mask transformations (all lazy, all cheap)
    # ------------------------------------------------------------------

    def subarray(self, lo, hi) -> "MaskRDD":
        """AND with the virtual bitmask of a coordinate box (Fig. 4a).

        Recorded lazily: the box joins the pending list and lowers with
        the rest in one pass when the mask is read. The box itself is
        validated now (call-site error timing).
        """
        mapper.chunk_ids_in_range(self.meta, lo, hi)
        return MaskRDD(self._base_rdd, self.meta, self.context,
                       boxes=self._boxes + ((tuple(lo), tuple(hi)),))

    def filter_on(self, array_rdd, predicate) -> "MaskRDD":
        """AND with the cells of ``array_rdd`` passing ``predicate``.

        Fig. 4b: evaluate the filter once against the chosen attribute,
        flip the failing bits in the MaskRDD, and leave every other
        attribute untouched until evaluation time.
        """
        if array_rdd.meta.shape != self.meta.shape:
            raise ShapeMismatchError(
                "filter attribute has a different shape from the mask"
            )
        chunks, masks = _co_partitioned(array_rdd.rdd, self.rdd)
        return self._with_rdd(masks.zip_partitions(
            chunks, _AndMasks(predicate), preserves_partitioning=True))

    def and_(self, other: "MaskRDD") -> "MaskRDD":
        """Cell-wise AND of two masks (and-join of Fig. 4c)."""
        self._check_compatible(other)
        masks, others = _co_partitioned(self.rdd, other.rdd)
        return self._with_rdd(masks.zip_partitions(
            others, _AndMasks(), preserves_partitioning=True))

    def or_(self, other: "MaskRDD") -> "MaskRDD":
        """Cell-wise OR of two masks (or-join of Fig. 4c)."""
        self._check_compatible(other)
        joined = self.rdd.full_outer_join(other.rdd)
        return self._with_rdd(joined.map_values(_or_masks))

    def _check_compatible(self, other: "MaskRDD") -> None:
        if other.meta.shape != self.meta.shape \
                or other.meta.chunk_shape != self.meta.chunk_shape:
            raise ShapeMismatchError(
                "mask geometry mismatch: "
                f"{self.meta.describe()} vs {other.meta.describe()}"
            )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def apply_to(self, array_rdd):
        """Reconcile an attribute with this mask (the on-demand step).

        Pairs attribute chunks with mask chunks and ANDs; attribute
        chunks with no surviving cell — or no mask entry at all — are
        dropped.

        The zip of the two sides is built now; the AND is a
        :class:`~repro.core.plan.MaskApplySource` on the result's pending
        plan, so it and any chunk-local operators applied to the result
        (a dataset's per-attribute restriction + filter chains) run as
        one fused pass per partition.
        """
        chunks, masks = _co_partitioned(array_rdd.rdd, self.rdd)
        joined = chunks.zip_partitions(masks, _paired,
                                       preserves_partitioning=True)
        return array_rdd._derive(
            joined, ChunkPlan(MaskApplySource(), (DropEmpty(),)),
            array_rdd._chunk_ids)

    def count_valid(self) -> int:
        return self.rdd.values().map(methodcaller("count")).sum()

    def cache(self) -> "MaskRDD":
        self.rdd.cache()
        return self

    def explain(self) -> str:
        """Render the pending restrictions and the physical plan —
        without compiling anything into the mask's state."""
        from repro.engine import explain as explain_mod

        lines = ["Plan:",
                 f"  mask[shape={self.meta.shape} "
                 f"chunk={self.meta.chunk_shape}]"]
        for lo, hi in self._boxes:
            lines.append(f"    subarray[{lo}..{hi}]")
        if self._boxes:
            lowered = self._base_rdd.map_partitions_with_index(
                _RestrictMasks(self.meta, self._boxes),
                preserves_partitioning=True)
        else:
            lowered = self._base_rdd
        lines.append("Physical plan:")
        lines.append(explain_mod.explain(lowered))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"MaskRDD({self.meta.describe()})"
