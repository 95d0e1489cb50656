"""Linear algebra on ArrayRDDs (Sections V-A-4 and VI of the paper).

- :class:`~repro.matrix.matrix.SpangleMatrix` — a 2-D array as blocks
  (chunks); zero is treated as invalid, so the bitmask doubles as the
  sparsity structure.
- :class:`~repro.matrix.vector.SpangleVector` — a broadcast vector whose
  transpose is a metadata swap (*opt2*).
- :mod:`~repro.matrix.multiply` — distributed block matmul with
  bitmask-gated partial products and the local-join fusion of
  Section VI-A.
- :mod:`~repro.matrix.offsets` — the offset-array (COO-like) alternative
  encoding for static matrices.
"""

from repro.matrix.matrix import SpangleMatrix
from repro.matrix.offsets import CSRBlock, OffsetArrayChunk, encode_static
from repro.matrix.vector import SpangleVector

__all__ = [
    "CSRBlock",
    "OffsetArrayChunk",
    "SpangleMatrix",
    "SpangleVector",
    "encode_static",
]
