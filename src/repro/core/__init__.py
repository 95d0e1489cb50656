"""Spangle's array data model: metadata, chunks, ArrayRDD, MaskRDD.

This is the paper's primary contribution (Sections III–V): a
multi-dimensional array is described by :class:`ArrayMetadata`, cut into
:class:`Chunk` objects (payload + bitmask) identified by chunk IDs
(Algorithm 1, :mod:`repro.core.mapper`), and distributed as an
:class:`ArrayRDD`. Multi-attribute arrays are column stores
(:class:`SpangleDataset`) sharing a lazily-evaluated :class:`MaskRDD`.
Chunk-local operators append kernels to a pending :class:`ChunkPlan`
(:mod:`repro.core.plan`), which makes its two exact rewrites as each
kernel goes in and compiles to one fused pass per partition.
"""

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
