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
to **one** ``map_partitions`` pass — one decode, one kernel pipeline
over plain offset/value vectors, one encode per surviving chunk.

The contract is strict: a compiled plan is byte-identical to chaining
the per-chunk :class:`~repro.core.chunk.Chunk` operators one at a time,
in all three chunk modes. Kernels therefore replicate those operators'
mode policy exactly — ``map_values`` preserves the input mode,
``filter``/``mask_and`` re-apply :func:`choose_mode` on the new density
— and the final encode goes through the same
:func:`~repro.core.chunk._build_from_bools` construction they use.
"""

from __future__ import annotations

import numpy as np

from repro.bitmask.popcount import rank_counts
from repro.core import mapper
from repro.core.chunk import Chunk, ChunkMode, choose_mode, \
    _build_from_bools
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


# ----------------------------------------------------------------------
# kernel state: one chunk decoded to plain vectors
# ----------------------------------------------------------------------

class KernelState:
    """A chunk mid-pipeline: ascending valid offsets + aligned values.

    ``rebuilt`` tracks whether any kernel changed the chunk (if not, the
    original ``chunk`` object is passed through untouched, exactly like
    the eager operators do). ``eager_builds`` counts how many
    intermediate Chunk constructions the eager path would have performed
    for the same record — the fusion savings counter.
    """

    __slots__ = ("num_cells", "offsets", "values", "mode", "chunk",
                 "rebuilt", "dropped", "eager_builds", "repacked")

    def __init__(self, num_cells, offsets, values, mode, chunk=None):
        self.num_cells = num_cells
        self.offsets = offsets
        self.values = values
        self.mode = mode
        self.chunk = chunk
        self.rebuilt = False
        self.dropped = False
        self.eager_builds = 0
        self.repacked = 0


def _encode(state: KernelState) -> Chunk:
    """Pack a rebuilt state into a Chunk — the single encode of the
    fused pass, via the same construction the eager operators use."""
    keep = np.zeros(state.num_cells, dtype=bool)
    keep[state.offsets] = True
    return _build_from_bools(state.num_cells, keep, state.values,
                             state.mode)


# ----------------------------------------------------------------------
# sources: how a record enters the kernel pipeline
# ----------------------------------------------------------------------

class ChunkSource:
    """Default source: the record value is already a Chunk."""

    #: shown in the fused pipeline label (None = invisible pass-through)
    label = None

    def begin(self, chunk_id, chunk) -> KernelState:
        return KernelState(chunk.num_cells, chunk.indices(),
                           chunk.values(), chunk.mode, chunk=chunk)


class MaskApplySource(ChunkSource):
    """Source for ``(Chunk, Bitmask)`` join pairs: MaskRDD reconciliation.

    Replicates :meth:`Chunk.and_mask` — including its return-self
    fast path when the mask removes nothing — but leaves the result
    decoded so downstream kernels fuse into the same pass.
    """

    label = "apply_mask"

    def begin(self, chunk_id, pair) -> KernelState:
        chunk, other_mask = pair
        if other_mask.num_bits != chunk.num_cells:
            raise ArrayError(
                f"mask length {other_mask.num_bits} != chunk cells "
                f"{chunk.num_cells}"
            )
        flat = chunk.flat_mask()
        combined = flat & other_mask
        if combined == flat:       # nothing was masked out
            return ChunkSource.begin(self, chunk_id, chunk)
        keep = combined.to_bools()
        density = combined.count() / chunk.num_cells \
            if chunk.num_cells else 0.0
        if chunk.mode is ChunkMode.DENSE:
            compact = chunk.payload[keep]
        else:
            compact = chunk.payload[keep[flat.to_bools()]]
        state = KernelState(chunk.num_cells, combined.indices(), compact,
                            choose_mode(density))
        state.rebuilt = True
        state.eager_builds = 1
        return state


class ElementwiseSource(ChunkSource):
    """Source for joined chunk pairs: the merge step of ``combine``.

    Replicates :meth:`Chunk.elementwise` (and-join: AND the bitmasks,
    compute only surviving pairs; or-join: OR the bitmasks with ``fill``
    standing in for missing cells) but keeps the result decoded so
    trailing kernels — ``DropEmpty``, a nonzero filter, scalar ops —
    run in the same pass.
    """

    def __init__(self, op, how: str, fill, num_cells: int, dtype):
        self.op = op
        self.how = how
        self.fill = fill
        self.num_cells = num_cells
        self.dtype = dtype
        self.label = f"combine_{how}"

    def begin(self, chunk_id, pair) -> KernelState:
        left, right = pair
        if left is None:
            left = Chunk.empty(self.num_cells, dtype=self.dtype)
        if right is None:
            right = Chunk.empty(self.num_cells, dtype=self.dtype)
        if left.num_cells != right.num_cells:
            raise ArrayError(
                f"chunk size mismatch: {left.num_cells} vs "
                f"{right.num_cells}"
            )
        left_mask = left.flat_mask()
        right_mask = right.flat_mask()
        if self.how == "and":
            combined = left_mask & right_mask
            offsets = combined.indices()
            result = self.op(left._values_at_offsets(offsets),
                             right._values_at_offsets(offsets))
        else:
            combined = left_mask | right_mask
            offsets = combined.indices()
            result = self.op(left.to_dense(self.fill)[offsets],
                             right.to_dense(self.fill)[offsets])
        density = offsets.size / left.num_cells if left.num_cells else 0.0
        state = KernelState(left.num_cells, offsets, result,
                            choose_mode(density))
        state.rebuilt = True
        state.eager_builds = 1
        return state


# ----------------------------------------------------------------------
# kernels: one chunk-local operator each
# ----------------------------------------------------------------------

class MapValuesKernel:
    """Vectorized function over the valid values; mode is preserved."""

    label = "map"

    def __init__(self, func):
        self.func = func

    def apply(self, chunk_id, state: KernelState) -> None:
        new_values = np.asarray(self.func(state.values))
        if new_values.shape != state.values.shape:
            raise ArrayError(
                "map_values function must preserve the value count"
            )
        state.values = new_values
        state.rebuilt = True
        state.eager_builds += 1


class FoldedScalarKernel:
    """Adjacent scalar ops applied in one kernel dispatch.

    ``stages`` is a tuple of ``(op, scalar, reflected, name)`` applied
    strictly in order — the same arithmetic sequence one kernel per op
    would perform, so the fold is bit-identical; it only saves the
    per-kernel dispatch and shape checks between stages.
    :meth:`ChunkPlan.then` builds it when a scalar kernel follows
    another.
    """

    def __init__(self, stages):
        self.stages = tuple(stages)
        names = "+".join(stage[3] for stage in self.stages)
        self.label = f"fold[{names}]"

    def apply(self, chunk_id, state: KernelState) -> None:
        values = state.values
        for op, scalar, reflected, _name in self.stages:
            if reflected:
                values = op(scalar, values)
            else:
                values = op(values, scalar)
        new_values = np.asarray(values)
        if new_values.shape != state.values.shape:
            raise ArrayError(
                "map_values function must preserve the value count"
            )
        state.values = new_values
        state.rebuilt = True
        state.eager_builds += len(self.stages)


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

    def apply(self, chunk_id, state: KernelState) -> None:
        keep = np.asarray(self.predicate(state.values), dtype=bool)
        if keep.shape != state.values.shape:
            raise ArrayError(
                "filter predicate must return one bool per value")
        density = int(keep.sum()) / state.num_cells \
            if state.num_cells else 0.0
        state.offsets = state.offsets[keep]
        state.values = state.values[keep]
        state.mode = choose_mode(density)
        state.rebuilt = True
        state.eager_builds += 1
        if state.offsets.size == 0:
            state.dropped = True


class MaskAndKernel:
    """Subarray restriction: AND with the virtual bitmask of a box.

    Chunk-ID pruning happens first (a metadata check, no scan), chunks
    fully inside the box pass through untouched, and — like the eager
    :meth:`Chunk.and_mask` — a chunk whose cells all survive is not
    rebuilt.
    """

    label = "mask_and"

    def __init__(self, meta, lo, hi):
        self.meta = meta
        self.lo = lo
        self.hi = hi
        self.wanted = frozenset(mapper.chunk_ids_in_range(meta, lo, hi))

    def apply(self, chunk_id, state: KernelState) -> None:
        if chunk_id not in self.wanted:
            state.dropped = True
            return
        if mapper.chunk_fully_inside(self.meta, chunk_id, self.lo,
                                     self.hi):
            return
        inside = mapper.range_mask_for_chunk(self.meta, chunk_id,
                                             self.lo, self.hi)
        keep = inside[state.offsets]
        if keep.all():             # nothing was masked out
            return
        count = int(keep.sum())
        density = count / state.num_cells if state.num_cells else 0.0
        state.offsets = state.offsets[keep]
        state.values = state.values[keep]
        state.mode = choose_mode(density)
        state.rebuilt = True
        state.eager_builds += 1
        if state.offsets.size == 0:
            state.dropped = True


class RepackKernel:
    """Re-apply the density policy to each chunk's *current* density.

    The plan-level form of :meth:`Chunk.repack`: upstream kernels (a
    filter, a mask AND) may leave a chunk far from the mode it was
    built in; this kernel retargets the encode without an extra pass —
    it only flips ``state.mode``, so in a fused pipeline repacking is
    free. Chunks already in the policy's mode pass through untouched.
    """

    label = "repack"

    def apply(self, chunk_id, state: KernelState) -> None:
        if state.num_cells == 0:
            return
        target = choose_mode(state.offsets.size / state.num_cells)
        if target is state.mode:
            return
        state.mode = target
        state.rebuilt = True
        state.eager_builds += 1
        state.repacked += 1


class DropEmpty:
    """Drop chunks with no valid cell (the memory-reduction policy).

    Compiled with ``preserves_partitioning=True`` — the plan-level
    answer to the eager path's trailing ``.filter(valid_count > 0)``.
    """

    label = "drop_empty"

    def apply(self, chunk_id, state: KernelState) -> None:
        if state.offsets.size == 0:
            state.dropped = True


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------

_CHUNK_SOURCE = ChunkSource()


class _CompiledPlanPass:
    """The lowered form of a plan: one callable running the whole
    kernel chain over a partition.

    A module-level class (not a closure) so compiled passes pickle by
    construction when a task ships to a worker process. The driver-side
    tracer and metrics references are dropped from the pickled state
    (``__getstate__``) and the worker's context-binding walk re-attaches
    its own via :meth:`bind_engine_context`, so per-pass counters and
    ``plan`` spans flow through the worker's registries and merge back
    with the task reply.
    """

    def __init__(self, source, kernels, labels, pipeline, tracer,
                 metrics):
        self.source = source
        self.kernels = kernels
        self.labels = labels
        self.pipeline = pipeline
        self.tracer = tracer
        self.metrics = metrics

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["tracer"] = None
        state["metrics"] = None
        return state

    def bind_engine_context(self, context) -> None:
        self.tracer = getattr(context, "tracer", None)
        self.metrics = getattr(context, "metrics", None)

    def __call__(self, _index, part):
        source = self.source
        kernels = self.kernels
        metrics = self.metrics
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if tracing:
            span = tracer.start(self.pipeline, "plan", partition=_index,
                                kernels=list(self.labels))
            ranks_before = rank_counts()
        chunks_in = 0
        chunk_ids = []
        mode_counts = {}
        mode_bytes = {}
        avoided = 0
        repacked = 0
        for chunk_id, value in part:
            chunks_in += 1
            if tracing:
                chunk_ids.append(chunk_id)
            state = source.begin(chunk_id, value)
            for kernel in kernels:
                kernel.apply(chunk_id, state)
                if state.dropped:
                    break
            repacked += state.repacked
            if state.dropped:
                avoided += state.eager_builds
                continue
            if state.rebuilt:
                avoided += state.eager_builds - 1
                out = chunk_id, _encode(state)
            else:
                avoided += state.eager_builds
                out = chunk_id, state.chunk
            if tracing:
                mode = out[1].mode.value
                mode_counts[mode] = mode_counts.get(mode, 0) + 1
                mode_bytes[mode] = (mode_bytes.get(mode, 0)
                                    + int(out[1].payload.nbytes))
            yield out
        if metrics is not None and avoided:
            metrics.add(fused_chunks_avoided=avoided)
        if metrics is not None and repacked:
            metrics.add(chunks_repacked=repacked)
        if tracing:
            chunks_out = sum(mode_counts.values())
            attrs = {"chunks_in": chunks_in,
                     "chunks_out": chunks_out,
                     "chunk_builds_avoided": avoided,
                     "chunk_ids": [list(cid) if isinstance(cid, tuple)
                                   else cid for cid in chunk_ids]}
            if repacked:
                attrs["chunks_repacked"] = repacked
            for mode, count in mode_counts.items():
                attrs[f"chunks_{mode}"] = count
                attrs[f"payload_bytes_{mode}"] = mode_bytes[mode]
            ranks_after = rank_counts()
            for name, before in ranks_before.items():
                delta = ranks_after[name] - before
                if delta:
                    attrs[name] = delta
            span.set(**attrs)
            tracer.finish(span)


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
        labels = self.stage_labels()
        if len(labels) == 1:
            return labels[0]
        return "fused[" + "→".join(labels) + "]"

    def compile(self, base_rdd, metrics=None):
        """Lower the plan to one narrow ``map_partitions`` pass.

        When the owning context traces, every executed pass opens a
        ``plan`` span under the running task, annotated with the fused
        kernel labels, per-chunk-mode output counts and payload bytes,
        and the bitmask rank queries the pass issued (a thread-local
        before/after diff of :func:`repro.bitmask.rank_counts`, so the
        attribution is exact even under the threaded scheduler).
        """
        if self.is_identity:
            return base_rdd
        labels = self.stage_labels()
        if metrics is not None and len(labels) >= 2:
            metrics.add(kernels_fused=len(labels))
        run = _CompiledPlanPass(self.source, self.kernels, labels,
                                self.label(),
                                getattr(base_rdd.context, "tracer", None),
                                metrics)
        compiled = base_rdd.map_partitions_with_index(
            run, preserves_partitioning=True)
        return compiled.rename(self.label())

    def __repr__(self) -> str:
        return f"ChunkPlan({self.label() if not self.is_identity else 'id'})"
