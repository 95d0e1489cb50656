"""Element-wise matrix operations with bitmask gating (Fig. 5).

Addition and subtraction use or-join semantics (a cell present on either
side contributes; the missing operand is zero). The Hadamard product uses
and-join semantics: the bitwise AND of the two bitmasks decides which
pairs are multiplied at all — if either bit is unset the product is zero
(invalid) and no arithmetic happens.

When the operands share a partitioner these are embarrassingly parallel:
the underlying joins are narrow and no data moves.

Each operation is a combine followed by a nonzero filter: the combine
joins the operands and the filter appends to the join's pending
ChunkPlan. The whole chain — the elementwise merge source, the
drop-empty kernel, and the nonzero ``FilterKernel`` — compiles to a
single fused pass per partition
(``fused[combine_or→drop_empty→filter]`` in the stage plan) instead of
building an intermediate combined chunk and re-encoding it.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.errors import ShapeMismatchError
from repro.matrix import matrix as matrix_mod


def _check(left, right) -> None:
    if left.shape != right.shape:
        raise ShapeMismatchError(
            f"matrix shape mismatch: {left.shape} vs {right.shape}"
        )
    if left.block_shape != right.block_shape:
        raise ShapeMismatchError(
            f"block shape mismatch: {left.block_shape} vs "
            f"{right.block_shape}"
        )


def _combine_nonzero(left, right, op, how, fill=0.0):
    """combine + drop-zeros as one kernel chain (fused when enabled)."""
    _check(left, right)
    combined = left.array.combine(right.array, op, how=how, fill=fill)
    # zero results (a + (-a), gated products) are not valid matrix cells
    nonzero = combined.filter(partial(np.not_equal, 0))
    return matrix_mod.SpangleMatrix(nonzero)


def add(left, right):
    return _combine_nonzero(left, right, np.add, how="or")


def subtract(left, right):
    return _combine_nonzero(left, right, np.subtract, how="or")


def hadamard(left, right):
    return _combine_nonzero(left, right, np.multiply, how="and")
