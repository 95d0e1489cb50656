"""Exception hierarchy for the Spangle reproduction.

All library-raised errors derive from :class:`SpangleError` so callers can
catch one base class. Engine-level failures (the mini-Spark substrate) derive
from :class:`EngineError`; array-level misuse derives from :class:`ArrayError`.
"""

from __future__ import annotations


class SpangleError(Exception):
    """Base class for every error raised by this library."""


class EngineError(SpangleError):
    """Base class for errors raised by the execution engine."""


class TaskFailure(EngineError):
    """A task failed while executing a partition.

    Carries the partition index and the underlying cause so the scheduler
    can decide whether to retry via lineage recomputation.
    """

    def __init__(self, partition_index, cause):
        super().__init__(
            f"task failed on partition {partition_index}: {cause!r}"
        )
        self.partition_index = partition_index
        self.cause = cause


class OutOfMemoryError(EngineError):
    """The simulated memory budget of an executor or driver was exceeded.

    The name intentionally mirrors the JVM error that the paper's baselines
    hit (MLlib failing to ingest KDD Cup data, SciSpark failing to load
    large dense arrays). It does *not* shadow Python's ``MemoryError``.
    """

    def __init__(self, role, requested_bytes, budget_bytes):
        super().__init__(
            f"{role} out of memory: requested {requested_bytes} bytes, "
            f"budget is {budget_bytes} bytes"
        )
        self.role = role
        self.requested_bytes = requested_bytes
        self.budget_bytes = budget_bytes


class ArrayError(SpangleError):
    """Base class for array-model misuse (bad shapes, coords, modes)."""


class MetadataError(ArrayError):
    """Inconsistent or invalid array metadata."""


class CoordinateError(ArrayError):
    """A coordinate fell outside the array or had the wrong arity."""


class ShapeMismatchError(ArrayError):
    """Two arrays/matrices had incompatible shapes for an operation."""


class AttributeMismatchError(ArrayError):
    """A dataset operation referenced an unknown or duplicate attribute."""


class ModeError(ArrayError):
    """A chunk operation is not valid in the chunk's current storage mode."""


class IngestError(SpangleError):
    """Raised when input data (CSV/SNF records) cannot be ingested."""


class ConvergenceError(SpangleError):
    """An iterative ML algorithm failed to converge within its budget."""

    def __init__(self, algorithm, iterations, residual):
        super().__init__(
            f"{algorithm} did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.algorithm = algorithm
        self.iterations = iterations
        self.residual = residual
