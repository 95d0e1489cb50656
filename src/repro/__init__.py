"""Spangle reproduction: a distributed in-memory array processing system.

A from-scratch Python reimplementation of *Spangle* (Kim, Kim, Moon --
ICDE 2021), including its substrate: a mini-Spark execution engine with
lazy RDDs, shuffles, caching, and lineage-based fault tolerance.

Quickstart::

    import numpy as np
    from repro import ClusterContext, ArrayRDD

    ctx = ClusterContext(num_executors=4)
    data = np.random.random((1000, 1000))
    valid = data > 0.6                      # sparse: most cells null
    arr = ArrayRDD.from_numpy(ctx, data, chunk_shape=(128, 128),
                              valid=valid)
    print(arr.subarray((100, 100), (499, 499)).aggregate("avg"))

Package map:

- :mod:`repro.engine` -- the mini-Spark substrate.
- :mod:`repro.bitmask` -- bitmask machinery (popcounts, hierarchy).
- :mod:`repro.core` -- ArrayRDD, MaskRDD, chunks, operators and the
  chunk-kernel fusion layer (:mod:`repro.core.plan`) they append to,
  which folds scalar kernels and hoists subarrays as kernels go in
  (``ArrayRDD.explain()`` shows which rewrites fired).
- :mod:`repro.matrix` -- distributed linear algebra.
- :mod:`repro.ml` -- PageRank and SGD/logistic regression.
- :mod:`repro.baselines` -- SciSpark/RasterFrames/SciDB/COO/MLlib/GraphX
  comparison systems.
- :mod:`repro.data` -- synthetic datasets with the paper's signatures.
- :mod:`repro.queries` -- the Table-I raster benchmark queries.
- :mod:`repro.io` -- CSV and SNF (NetCDF-like) ingestion, and the
  ChunkStore that saves and loads an ArrayRDD as its packed chunks.
"""

from repro.bitmask import Bitmask
from repro.core import (
    Aggregator,
    ArrayMetadata,
    ArrayRDD,
    Chunk,
    ChunkMode,
    ChunkPlan,
    MaskRDD,
    SpangleDataset,
)
from repro.engine import ClusterContext, StorageLevel
from repro.errors import SpangleError
from repro.matrix import (
    SpangleMatrix,
    SpangleVector,
)
from repro.ml import (
    BitmaskGraph,
    DistributedSamples,
    LogisticRegression,
    pagerank,
)

__version__ = "1.0.0"

__all__ = [
    "Aggregator",
    "ArrayMetadata",
    "ArrayRDD",
    "Bitmask",
    "BitmaskGraph",
    "Chunk",
    "ChunkMode",
    "ChunkPlan",
    "ClusterContext",
    "DistributedSamples",
    "LogisticRegression",
    "MaskRDD",
    "SpangleDataset",
    "SpangleError",
    "SpangleMatrix",
    "SpangleVector",
    "StorageLevel",
    "pagerank",
    "__version__",
]
