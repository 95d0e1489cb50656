"""ChunkPlan: a fused chunk-kernel operator layer (the plan algebra).

Every narrow ArrayRDD operator — ``map_values``, ``filter``,
``subarray``, scalar arithmetic — is a chunk-local rewrite of
``(payload, bitmask)``. Executed eagerly, a chain of k such operators
re-encodes every chunk k times: decode offsets/values, transform, pack a
fresh bitmask, build a fresh :class:`~repro.core.chunk.Chunk`. This
module replaces that with one plan layer: operators *append a kernel*
to a pending :class:`ChunkPlan`, which makes two exact rewrites as the
kernel goes in (:meth:`ChunkPlan.then`). When an action (or a wide
operator, or ``cache()``) forces evaluation, the whole chain compiles
to **one** ``map_partitions`` pass over whole partitions
(:class:`Batch`): one decode of the partition's stacked masks, each
kernel once over its offsets and values, one encode of the rebuilt
chunks. ``map`` and ``filter`` callables still see one chunk per call.
A reduction (``aggregate``, ``count_valid``, the window partials of
the raster queries) compiles the plan with itself as a *sink*: it
reads the batch where the encode would be, so the chunks it consumes
are never built.

The contract is strict: a compiled plan is byte-identical to applying
the operators eagerly, one chunk and one operator at a time, in all
three chunk modes. Kernels therefore replicate the eager mode policy
exactly — ``map_values`` preserves the input mode,
``filter``/``mask_and`` re-apply :func:`choose_mode` on the new density
— and chunks no kernel changed pass through as the same objects.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.bitmask.popcount import WORD_BITS, rank_counts
from repro.bitmask.stacked import bits_at, pack_positions, ranks, \
    set_positions, stack_words
from repro.core import mapper
from repro.core.chunk import MODES, Chunk, ChunkMode, choose_modes
from repro.errors import ArrayError

__all__ = [
    "ChunkPlan",
    "ChunkSource",
    "DropEmpty",
    "ElementwiseSource",
    "FilterKernel",
    "FoldedScalarKernel",
    "MapValuesKernel",
    "MaskAndKernel",
    "MaskApplySource",
    "RepackKernel",
    "ScalarOpKernel",
]


def each(func, parts, message: str, dtype=None) -> np.ndarray:
    """``func`` called once per chunk on that chunk's values, the
    results concatenated; each must keep its chunk's value count."""
    out = []
    for part in parts:
        result = np.asarray(func(part), dtype=dtype)
        if result.shape != part.shape:
            raise ArrayError(message)
        out.append(result)
    return np.concatenate(out)


# ----------------------------------------------------------------------
# the batch: one partition decoded to plain vectors
# ----------------------------------------------------------------------

class Batch:
    """A partition mid-pipeline: its chunks' valid cells in two vectors.

    Chunk ``i`` owns bits ``base[i]`` to ``base[i] + cells[i]`` of one
    bit space (:mod:`repro.bitmask.stacked`); ``offsets`` (ascending)
    and ``values`` hold the valid cells, chunk ``i``'s at
    ``starts[i]:starts[i + 1]``, in one dtype, as an array's chunks
    share. Per chunk: ``modes`` (into :data:`~repro.core.chunk.MODES`),
    ``rebuilt`` (the others pass through as the same objects) and
    ``builds``, the Chunks the eager path would build; dropped chunks
    leave the batch and their builds go to ``avoided``.

    Every one of these is worked out from the chunks the first time
    something reads it, so a reduction over untouched chunks decodes
    nothing and pays for no per-chunk array it does not read. The bit
    space is fixed when ``offsets`` are, before any chunk is dropped.
    """

    def __init__(self, ids, chunks):
        self.ids = list(ids)
        self.chunks = list(chunks)
        self._words = self._offsets = self._values = None
        self.repacked = 0
        self.avoided = 0

    @classmethod
    def decode(cls, ids, chunks, other=None, how="and", fill=0) -> "Batch":
        """The chunks as a batch, decoded on first read; with ``other``
        (stacked words, same layout) decoded now, to only the cells of
        ``mask & other``, or of ``mask | other`` with ``fill`` for the
        cells these chunks lack."""
        batch = cls(ids, chunks)
        if other is None:
            return batch
        words = batch.words()
        batch.offsets = set_positions(words & other if how == "and"
                                      else words | other)
        batch.starts = np.searchsorted(batch.offsets, batch._bounds)
        batch.values = batch.read(chunks, words,
                                  None if how == "and" else fill)
        return batch

    @cached_property
    def cells(self) -> np.ndarray:
        return np.array([chunk.num_cells for chunk in self.chunks],
                        dtype=np.int64)

    @cached_property
    def _bounds(self) -> np.ndarray:
        """Each chunk's first bit, and the end: a flat mask starts on a
        word."""
        bounds = np.zeros(len(self.chunks) + 1, dtype=np.int64)
        np.cumsum(-(-self.cells // WORD_BITS) * WORD_BITS, out=bounds[1:])
        return bounds

    @cached_property
    def base(self) -> np.ndarray:
        return self._bounds[:-1]

    @cached_property
    def bits(self) -> int:
        return int(self._bounds[-1])

    @cached_property
    def starts(self) -> np.ndarray:
        starts = np.zeros(len(self.chunks) + 1, dtype=np.int64)
        np.cumsum([chunk.valid_count for chunk in self.chunks],
                  out=starts[1:])
        return starts

    @cached_property
    def modes(self) -> np.ndarray:
        return np.array([MODES.index(chunk.mode) for chunk in self.chunks],
                        dtype=np.intp)

    @cached_property
    def rebuilt(self) -> np.ndarray:
        return np.zeros(len(self.ids), dtype=bool)

    @cached_property
    def builds(self) -> np.ndarray:
        return np.zeros(len(self.ids), dtype=np.int64)

    @property
    def offsets(self) -> np.ndarray:
        if self._offsets is None:
            self.offsets = set_positions(self.words())
        return self._offsets

    @offsets.setter
    def offsets(self, offsets) -> None:
        self._offsets = offsets
        self._bounds            # the bit space the offsets live in

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self.read(self.chunks, self.words())
        return self._values

    @values.setter
    def values(self, values) -> None:
        self._values = values

    def words(self) -> np.ndarray:
        """The chunks' flat masks, stacked."""
        if self._words is None:
            self._words = stack_words(
                [chunk.flat_mask() for chunk in self.chunks])[0]
        return self._words

    def read(self, chunks, words, fill=None) -> np.ndarray:
        """``chunks``' values at the offsets (``words``: their stacked
        masks), one gather from their stacked payloads: a compressed
        slot is the cell's rank, a DENSE one its offset less the padding
        before it; ``fill`` where a chunk has no valid cell."""
        payload = np.concatenate([chunk.payload for chunk in chunks])
        dense = np.array([chunk.mode is ChunkMode.DENSE for chunk in chunks])
        if not dense.any():
            if fill is None and payload.size == self.starts[-1]:
                return payload      # every valid cell, in payload order
            slots = ranks(words, self.offsets)
        else:
            sizes = np.array([chunk.payload.size for chunk in chunks])
            first = np.cumsum(sizes) - sizes
            slots = self.offsets
            if not (dense.all() and np.array_equal(self.base, first)):
                owner = np.repeat(np.arange(len(chunks)), self.counts())
                slots = slots - (self.base - first)[owner]
            if not dense.all():
                valid = np.array([chunk.valid_count for chunk in chunks])
                before = np.cumsum(valid) - valid
                slots = np.where(dense[owner], slots,
                                 ranks(words, self.offsets)
                                 - (before - first)[owner])
        if fill is None:
            return payload[slots]
        hit = bits_at(words, self.offsets)
        values = np.full(self.offsets.size, fill, dtype=payload.dtype)
        values[hit] = payload[slots[hit]]
        return values

    def counts(self) -> np.ndarray:
        return np.diff(self.starts)

    def views(self, values=None) -> list:
        """Each chunk's slice of ``values`` (default: the batch's)."""
        values = self.values if values is None else values
        bounds = self.starts.tolist()
        return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def chunk_values(self) -> list:
        """Each chunk's valid values, for a reduction to read: while no
        kernel has decoded the batch, straight from the chunks (a
        compressed chunk's is its payload, so never write to them)."""
        if self._values is None:
            return [chunk.values() for chunk in self.chunks]
        return self.views()

    def touch(self, where, builds=1) -> None:
        """Mark chunks ``where`` rebuilt, with ``builds`` eager builds."""
        self.rebuilt |= where
        self.builds += np.where(where, builds, 0)

    def mark(self, touched) -> None:
        """Chunks ``touched`` re-choose their mode for their current
        density and count one eager build."""
        self.modes = np.where(touched, choose_modes(self.counts(),
                                                    self.cells), self.modes)
        self.touch(touched)

    def _keep_cells(self, keep) -> None:
        # a batch nothing has decoded yet reads its cells as they were
        values = self.values
        self.offsets = self.offsets[keep]
        self.values = values[keep]
        kept = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        self.starts = kept[self.starts]

    def restrict(self, keep, touched=None) -> None:
        """Keep the valid cells where ``keep``; :meth:`mark` the chunks
        ``touched`` (default: those that lost a cell), dropping any of
        them left empty."""
        before = self.counts()
        self._keep_cells(keep)
        counts = self.counts()
        if touched is None:
            touched = counts < before
        self.mark(touched)
        self.drop(touched & (counts == 0))

    def drop(self, dead) -> None:
        """Remove the chunks flagged ``dead`` from the batch."""
        if not dead.any():
            return
        self.avoided += int(self.builds[dead].sum())
        alive = ~dead
        self._keep_cells(np.repeat(alive, self.counts()))
        self.starts = np.append(self.starts[:-1][alive], self.starts[-1])
        for name in ("cells", "base", "modes", "rebuilt", "builds"):
            setattr(self, name, getattr(self, name)[alive])
        kept = np.flatnonzero(alive).tolist()
        self.ids = [self.ids[i] for i in kept]
        self.chunks = [self.chunks[i] for i in kept]

    def encode(self) -> list:
        """The ``(chunk_id, Chunk)`` records: untouched chunks as they
        came, rebuilt ones packed by one scatter and one ``packbits``
        over the partition. Each rebuilt Chunk owns copies of its word
        row and value slice, so no output pins the batch's buffers."""
        out = list(zip(self.ids, self.chunks))
        rebuilt = np.flatnonzero(self.rebuilt).tolist()
        if not rebuilt:
            return out
        words = pack_positions(self.offsets, self.bits // WORD_BITS)
        modes = [MODES[self.modes[i]] for i in rebuilt]
        if ChunkMode.DENSE in modes:
            dense = np.zeros(self.bits, dtype=self.values.dtype)
            dense[self.offsets] = self.values
        cells, base, starts = (array.tolist() for array in
                               (self.cells, self.base, self.starts))
        for i, mode in zip(rebuilt, modes):
            lo, size = base[i], cells[i]
            row = words[lo // WORD_BITS:(lo + size - 1) // WORD_BITS + 1]
            if mode is ChunkMode.DENSE:
                payload = dense[lo:lo + size].copy()
            else:
                payload = self.values[starts[i]:starts[i + 1]].copy()
            out[i] = self.ids[i], Chunk.assemble(mode, size, row.copy(),
                                                 payload)
        return out


# ----------------------------------------------------------------------
# sources: how a partition's records enter the kernel pipeline
# ----------------------------------------------------------------------

class ChunkSource:
    """Default source: the record values are already Chunks."""

    #: shown in the fused pipeline label (None = invisible pass-through)
    label = None

    def begin(self, records) -> Batch:
        ids, chunks = zip(*records)
        return Batch.decode(ids, chunks)


class MaskApplySource(ChunkSource):
    """Source for ``(Chunk, Bitmask)`` pairs: MaskRDD reconciliation.

    Replicates the eager oracle's ``and_mask`` — including its
    return-self fast path when the mask removes nothing — as one word
    AND over the partition's stacked masks, decoding only survivors.
    """

    label = "apply_mask"

    def begin(self, records) -> Batch:
        ids, pairs = zip(*records)
        chunks, masks = zip(*pairs)
        for chunk, mask in pairs:
            if mask.num_bits != chunk.num_cells:
                raise ArrayError(f"mask length {mask.num_bits} != chunk "
                                 f"cells {chunk.num_cells}")
        batch = Batch.decode(ids, chunks, stack_words(masks)[0])
        batch.mark(batch.counts() < [chunk.valid_count for chunk in chunks])
        return batch


class ElementwiseSource(ChunkSource):
    """Source for joined chunk pairs: the merge step of ``combine``.

    Replicates the eager per-chunk merge (and-join: cells valid on both
    sides, only those computed; or-join: cells valid on either, ``fill``
    for the missing side) over whole partitions; ``op`` runs per chunk.
    """

    def __init__(self, op, how: str, fill, num_cells: int, dtype):
        self.op = op
        self.how = how
        self.fill = fill
        self.num_cells = num_cells
        self.dtype = dtype
        self.label = f"combine_{how}"

    def begin(self, records) -> Batch:
        ids, pairs = zip(*records)
        if any(chunk is None for pair in pairs for chunk in pair):
            empty = Chunk.empty(self.num_cells, dtype=self.dtype)
            pairs = [[chunk if chunk is not None else empty
                      for chunk in pair] for pair in pairs]
        sides = list(zip(*pairs))
        for left, right in zip(*sides):
            if left.num_cells != right.num_cells:
                raise ArrayError(f"chunk size mismatch: {left.num_cells} "
                                 f"vs {right.num_cells}")
        right = stack_words([chunk.flat_mask() for chunk in sides[1]])[0]
        batch = Batch.decode(ids, sides[0], right, self.how, self.fill)
        right = batch.read(sides[1], right,
                           None if self.how == "and" else self.fill)
        batch.values = np.concatenate([
            np.asarray(self.op(*pair)) for pair in
            zip(batch.views(), batch.views(right))])
        batch.mark(np.ones(len(ids), dtype=bool))
        return batch


# ----------------------------------------------------------------------
# kernels: one chunk-local operator each, run over a whole batch
# ----------------------------------------------------------------------

class MapValuesKernel:
    """Vectorized function over each chunk's valid values; mode kept."""

    label = "map"

    def __init__(self, func):
        self.func = func

    def apply(self, batch: Batch) -> None:
        batch.values = each(self.func, batch.views(), "map_values "
                            "function must preserve the value count")
        batch.touch(True)


class FoldedScalarKernel:
    """Adjacent scalar ops applied in one kernel dispatch.

    ``stages`` is a tuple of ``(op, scalar, reflected, name)`` applied
    strictly in order — the same arithmetic sequence one kernel per op
    would perform, so the fold is bit-identical; it only saves the
    per-kernel dispatch and shape checks between stages. The ops are
    element-wise, so they run once over the batch's concatenated
    values. :meth:`ChunkPlan.then` builds it when a scalar kernel
    follows another.
    """

    def __init__(self, stages):
        self.stages = tuple(stages)
        names = "+".join(stage[3] for stage in self.stages)
        self.label = f"fold[{names}]"

    def apply(self, batch: Batch) -> None:
        values = batch.values
        for op, scalar, reflected, _name in self.stages:
            values = op(scalar, values) if reflected else op(values, scalar)
        values = np.asarray(values)
        if values.shape != batch.values.shape:
            raise ArrayError(
                "map_values function must preserve the value count")
        batch.values = values
        batch.touch(True, len(self.stages))


class ScalarOpKernel(FoldedScalarKernel):
    """Scalar arithmetic (``a * 2``, ``2 ** a``, ...): a one-stage fold."""

    def __init__(self, op, scalar, reflected: bool = False,
                 name: str = None):
        name = name or getattr(op, "__name__", "op")
        super().__init__(((op, scalar, reflected, name),))
        self.label = f"scalar_{name}"


class FilterKernel:
    """Invalidate cells failing a vectorized predicate; re-applies the
    density policy and drops chunks left empty."""

    label = "filter"

    def __init__(self, predicate):
        self.predicate = predicate

    def apply(self, batch: Batch) -> None:
        keep = each(self.predicate, batch.views(),
                    "filter predicate must return one bool per value", bool)
        batch.restrict(keep, np.ones(len(batch.ids), dtype=bool))


class MaskAndKernel:
    """Subarray restriction: AND with the virtual bitmask of a box.

    Chunk-ID pruning happens first (a metadata check, no scan), chunks
    fully inside the box pass through untouched, and — like the eager
    oracle's ``and_mask`` — a chunk whose cells all survive is not
    rebuilt.
    """

    label = "mask_and"

    def __init__(self, meta, lo, hi):
        self.meta = meta
        self.lo = lo
        self.hi = hi
        self.wanted = frozenset(mapper.chunk_ids_in_range(meta, lo, hi))

    def apply(self, batch: Batch) -> None:
        batch.drop(np.array([cid not in self.wanted for cid in batch.ids],
                            dtype=bool))
        keep = np.ones(batch.offsets.size, dtype=bool)
        bounds = batch.starts.tolist()
        for i, chunk_id in enumerate(batch.ids):
            if mapper.chunk_fully_inside(self.meta, chunk_id, self.lo,
                                         self.hi):
                continue
            inside = mapper.range_mask_for_chunk(self.meta, chunk_id,
                                                 self.lo, self.hi)
            lo, hi = bounds[i], bounds[i + 1]
            keep[lo:hi] = inside[batch.offsets[lo:hi] - batch.base[i]]
        batch.restrict(keep)


class RepackKernel:
    """Re-apply the density policy to each chunk's *current* density.

    The plan-level form of :meth:`Chunk.repack`: upstream kernels (a
    filter, a mask AND) may leave a chunk far from the mode it was
    built in; this kernel retargets the encode without an extra pass —
    it only changes ``batch.modes``, so in a fused pipeline repacking
    is free. Chunks already in the policy's mode pass through untouched.
    """

    label = "repack"

    def apply(self, batch: Batch) -> None:
        moved = choose_modes(batch.counts(), batch.cells) != batch.modes
        moved &= batch.cells > 0
        batch.mark(moved)
        batch.repacked += int(moved.sum())


class DropEmpty:
    """Drop chunks with no valid cell (the memory-reduction policy).

    Compiled with ``preserves_partitioning=True`` — the plan-level
    answer to the eager path's trailing ``.filter(valid_count > 0)``.
    """

    label = "drop_empty"

    def apply(self, batch: Batch) -> None:
        batch.drop(batch.counts() == 0)


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------

_CHUNK_SOURCE = ChunkSource()


class _CompiledPlanPass:
    """The lowered form of a plan: one callable running the whole
    kernel chain over a partition, ending in the encode or in a sink.

    The driver-side tracer and metrics references are dropped from the
    pickled state (``__getstate__``) and the worker's context-binding
    walk re-attaches its own via :meth:`bind_engine_context`, so
    per-pass counters and ``plan`` spans flow through the worker's
    registries and merge back with the task reply.
    """

    def __init__(self, source, kernels, labels, pipeline, tracer,
                 metrics, sink=None):
        self.source = source
        self.kernels = kernels
        self.labels = labels
        self.pipeline = pipeline
        self.tracer = tracer
        self.metrics = metrics
        self.sink = sink

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["tracer"] = None
        state["metrics"] = None
        return state

    def bind_engine_context(self, context) -> None:
        self.tracer = getattr(context, "tracer", None)
        self.metrics = getattr(context, "metrics", None)

    def __call__(self, _index, part):
        metrics = self.metrics
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if tracing:
            span = tracer.start(self.pipeline, "plan", partition=_index,
                                kernels=list(self.labels))
            ranks_before = rank_counts()
        records = live = list(part)
        # leading subarrays prune chunk IDs before anything decodes
        for kernel in self.kernels if type(self.source) is ChunkSource \
                else ():
            if not isinstance(kernel, MaskAndKernel):
                break
            live = [record for record in live if record[0] in kernel.wanted]
        batch = self.source.begin(live) if live else Batch((), ())
        for kernel in self.kernels:
            if not batch.ids:
                break
            kernel.apply(batch)
        out = batch.encode() if self.sink is None else self.sink(batch)
        avoided = repacked = 0
        if self.labels:         # a bare sink builds and repacks nothing
            avoided = batch.avoided + int(batch.builds.sum())
            if self.sink is None:
                # a rebuilt chunk costs the pass its one encode
                avoided -= int(batch.rebuilt.sum())
            repacked = batch.repacked
        if metrics is not None and avoided:
            metrics.add(fused_chunks_avoided=avoided)
        if metrics is not None and repacked:
            metrics.add(chunks_repacked=repacked)
        if tracing:
            attrs = {"chunks_in": len(records),
                     "chunks_out": len(batch.ids),
                     "chunk_builds_avoided": avoided,
                     "chunk_ids": [list(cid) if isinstance(cid, tuple)
                                   else cid for cid, _chunk in records]}
            if repacked:
                attrs["chunks_repacked"] = repacked
            for mode, count in zip(MODES, np.bincount(
                    batch.modes, minlength=len(MODES)).tolist()):
                if count:
                    attrs[f"chunks_{mode.value}"] = count
            for _cid, chunk in out if self.sink is None else ():
                key = f"payload_bytes_{chunk.mode.value}"
                attrs[key] = attrs.get(key, 0) + int(chunk.payload.nbytes)
            ranks_after = rank_counts()
            for name, before in ranks_before.items():
                delta = ranks_after[name] - before
                if delta:
                    attrs[name] = delta
            span.set(**attrs)
            tracer.finish(span)
        return out


def _pipeline_name(labels) -> str:
    if len(labels) == 1:
        return labels[0]
    return "fused[" + "→".join(labels) + "]"


class ChunkPlan:
    """An immutable chain of chunk kernels over an optional source.

    ``then(kernel)`` extends the chain (returning a new plan) and makes
    the plan's exact rewrites as it does; ``rules`` names the ones that
    fired, in order. ``compile(base_rdd, metrics)`` lowers the whole
    chain to a single ``map_partitions`` pass named after its pipeline
    (``fused[filter→map→mask_and]``), so the scheduler runs the chain
    as one task per partition and ``explain`` shows the fusion.
    """

    __slots__ = ("source", "kernels", "rules")

    def __init__(self, source: ChunkSource = None, kernels=()):
        self.source = source if source is not None else _CHUNK_SOURCE
        self.kernels = tuple(kernels)
        self.rules = ()

    @classmethod
    def identity(cls) -> "ChunkPlan":
        return cls()

    @property
    def is_identity(self) -> bool:
        return self.source is _CHUNK_SOURCE and not self.kernels

    def then(self, kernel) -> "ChunkPlan":
        """The plan with ``kernel`` appended, rewritten where a rule
        matches. Both rules keep every chunk byte-identical to the
        chain as written:

        - ``fold_scalars``: a scalar kernel after a scalar or folded
          kernel joins it in one :class:`FoldedScalarKernel`.
        - ``subarray_before_scalar``: a :class:`MaskAndKernel` goes in
          before the trailing run of scalar kernels, so pruned chunks
          drop before any arithmetic. Scalar kernels are strictly
          element-wise; ``map`` and ``filter`` callables may read the
          whole value vector, so they are never reordered.
        """
        kernels = self.kernels
        cut = len(kernels)
        while cut and isinstance(kernels[cut - 1], FoldedScalarKernel):
            cut -= 1
        rule = None
        if isinstance(kernel, FoldedScalarKernel) and cut < len(kernels):
            rule = "fold_scalars"
            kernels = kernels[:-1] + (FoldedScalarKernel(
                kernels[-1].stages + kernel.stages),)
        elif isinstance(kernel, MaskAndKernel) and cut < len(kernels):
            rule = "subarray_before_scalar"
            kernels = kernels[:cut] + (kernel,) + kernels[cut:]
        else:
            kernels = kernels + (kernel,)
        plan = ChunkPlan(self.source, kernels)
        plan.rules = self.rules + ((rule,) if rule else ())
        return plan

    def stage_labels(self) -> list:
        labels = [self.source.label] if self.source.label else []
        labels.extend(kernel.label for kernel in self.kernels)
        return labels

    def label(self) -> str:
        return _pipeline_name(self.stage_labels())

    def compile(self, base_rdd, metrics=None, sink=None):
        """Lower the plan to one narrow ``map_partitions`` pass.

        With a ``sink`` (internal: a reduction that reads batches, with
        a ``label``), the pass returns ``sink(batch)`` per partition
        where it would encode chunks, so no chunk is built only to be
        read again; an identity plan then still makes the pass.

        When the owning context traces, every executed pass opens a
        ``plan`` span under the running task, annotated with the fused
        kernel labels, the per-chunk-mode counts of the chunks that
        reach the encode (with their payload bytes) or the sink, and the
        bitmask rank queries the pass issued (a thread-local
        before/after diff of :func:`repro.bitmask.rank_counts`, so the
        attribution is exact even under the threaded scheduler).
        """
        if self.is_identity and sink is None:
            return base_rdd
        labels = self.stage_labels()
        if metrics is not None and len(labels) >= 2:
            metrics.add(kernels_fused=len(labels))
        name = _pipeline_name(labels + ([sink.label] if sink else []))
        run = _CompiledPlanPass(self.source, self.kernels, labels, name,
                                getattr(base_rdd.context, "tracer", None),
                                metrics, sink)
        compiled = base_rdd.map_partitions_with_index(
            run, preserves_partitioning=sink is None)
        return compiled.rename(name)

    def __repr__(self) -> str:
        return f"ChunkPlan({self.label() if not self.is_identity else 'id'})"
