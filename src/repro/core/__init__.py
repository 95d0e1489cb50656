"""Spangle's array data model: metadata, chunks, ArrayRDD, MaskRDD.

This is the paper's primary contribution (Sections III–V): a
multi-dimensional array is described by :class:`ArrayMetadata`, cut into
:class:`Chunk` objects (payload + bitmask) identified by chunk IDs
(Algorithm 1, :mod:`repro.core.mapper`), and distributed as an
:class:`ArrayRDD`. Multi-attribute arrays are column stores
(:class:`SpangleDataset`) sharing a lazily-evaluated :class:`MaskRDD`.
Chunk-local operators append kernels to a pending :class:`ChunkPlan`
(:mod:`repro.core.plan`), which makes its two exact rewrites as each
kernel goes in and compiles to one fused pass per chunk.
"""

from repro.core import chunk_codec
from repro.core.chunk import chunk_exact_size, repack_records
from repro.core.aggregates import (
    Aggregator,
    AvgAggregator,
    CountAggregator,
    MaxAggregator,
    MinAggregator,
    SumAggregator,
)
from repro.core.array_rdd import ArrayRDD
from repro.core.chunk import Chunk, ChunkMode
from repro.core.dataset import SpangleDataset
from repro.core.mask_rdd import MaskRDD
from repro.core.metadata import ArrayMetadata
from repro.core.plan import ChunkPlan

# teach the engine's columnar shuffle to pack Chunk values; the engine
# layer itself never imports core
chunk_codec.register()

# the same inversion for the memory tier: exact chunk sizes for cache
# budgets, the unbounded chunk codec for spill files, and the density
# repacker for cache admission
from repro.engine.sizing import register_sizer as _register_sizer
from repro.engine.spill import (
    register_spill_codec as _register_spill_codec,
)
from repro.engine.storage import (
    register_repacker as _register_repacker,
)

_register_sizer(chunk_exact_size)
_register_spill_codec(chunk_codec.probe_chunks_for_spill)
_register_repacker(repack_records)

__all__ = [
    "Aggregator",
    "ArrayMetadata",
    "ArrayRDD",
    "AvgAggregator",
    "Chunk",
    "ChunkMode",
    "ChunkPlan",
    "CountAggregator",
    "MaskRDD",
    "MaxAggregator",
    "MinAggregator",
    "SpangleDataset",
    "SumAggregator",
]
