"""Array metadata: the logical description of a Spangle array.

The paper (Section III-C) keeps, per array: the starting and ending
points of every dimension, the chunk interval, and the data types. The
mapper uses this to translate between the logical layout (coordinates)
and the physical layout (chunk IDs + payload offsets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import CoordinateError, MetadataError


@dataclass(frozen=True)
class ArrayMetadata:
    """Immutable geometry of one array (or one attribute of a dataset).

    Parameters
    ----------
    shape:
        Number of cells along each dimension.
    chunk_shape:
        Chunk interval along each dimension. Edge chunks are *logically*
        full-size; cells past the array boundary are permanently invalid,
        so payload offset arithmetic stays uniform.
    starts:
        Global coordinate of the first cell per dimension (defaults to
        zeros). Raster data often starts at nonzero lat/lon indices.
    dim_names:
        Optional axis names (``("x", "y", "time")``).
    dtype:
        Cell dtype (numpy dtype-like). Defaults to float64.
    attribute:
        Name of the attribute this array stores, for column-store
        bookkeeping.
    """

    shape: tuple
    chunk_shape: tuple
    starts: tuple = None
    dim_names: tuple = None
    dtype: object = np.float64
    attribute: str = "value"

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        chunk_shape = tuple(int(c) for c in self.chunk_shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "chunk_shape", chunk_shape)
        if not shape:
            raise MetadataError("array must have at least one dimension")
        if len(chunk_shape) != len(shape):
            raise MetadataError(
                f"chunk_shape arity {len(chunk_shape)} != "
                f"shape arity {len(shape)}"
            )
        if any(s <= 0 for s in shape):
            raise MetadataError(f"dimensions must be positive: {shape}")
        if any(c <= 0 for c in chunk_shape):
            raise MetadataError(
                f"chunk intervals must be positive: {chunk_shape}"
            )
        starts = self.starts
        if starts is None:
            starts = (0,) * len(shape)
        starts = tuple(int(s) for s in starts)
        if len(starts) != len(shape):
            raise MetadataError(
                f"starts arity {len(starts)} != shape arity {len(shape)}"
            )
        object.__setattr__(self, "starts", starts)
        dim_names = self.dim_names
        if dim_names is None:
            dim_names = tuple(f"dim{i}" for i in range(len(shape)))
        dim_names = tuple(dim_names)
        if len(dim_names) != len(shape):
            raise MetadataError(
                f"dim_names arity {len(dim_names)} != shape arity "
                f"{len(shape)}"
            )
        if len(set(dim_names)) != len(dim_names):
            raise MetadataError(f"duplicate dimension names: {dim_names}")
        object.__setattr__(self, "dim_names", dim_names)
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        # the vectorized mapper holds IDs, offsets and coordinates in int64
        limit = 2**63
        if (self.num_chunks >= limit or self.cells_per_chunk >= limit
                or max(shape) > limit or min(starts) < -limit
                or max(self.ends) > limit):
            raise MetadataError(
                f"geometry does not fit int64: shape {shape}, chunk_shape "
                f"{chunk_shape}, starts {starts}")

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def num_cells(self) -> int:
        return math.prod(self.shape)

    # cached: the mapper reads these on every chunk-ID translation.
    # cached_property writes the instance __dict__ directly, so it works
    # on this frozen (non-slotted) dataclass and stays out of the
    # generated eq/hash/repr, which only read the declared fields;
    # __getstate__ keeps it out of pickles too.
    _CACHED = ("chunk_grid", "num_chunks")

    def __getstate__(self):
        return {name: value for name, value in self.__dict__.items()
                if name not in self._CACHED}

    @cached_property
    def chunk_grid(self) -> tuple:
        """Number of chunks along each dimension."""
        return tuple(
            -(-size // interval)
            for size, interval in zip(self.shape, self.chunk_shape)
        )

    @cached_property
    def num_chunks(self) -> int:
        return math.prod(self.chunk_grid)

    @property
    def cells_per_chunk(self) -> int:
        """Logical cell count of every chunk (edge chunks included)."""
        return math.prod(self.chunk_shape)

    @property
    def ends(self) -> tuple:
        """Exclusive global end coordinate per dimension."""
        return tuple(s + n for s, n in zip(self.starts, self.shape))

    def dim_index(self, name: str) -> int:
        try:
            return self.dim_names.index(name)
        except ValueError:
            raise MetadataError(
                f"unknown dimension {name!r}; have {self.dim_names}"
            ) from None

    # ------------------------------------------------------------------
    # validation and derivation
    # ------------------------------------------------------------------

    def check_coords(self, coords) -> tuple:
        """Validate global coordinates; returns them as a tuple of ints."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.ndim:
            raise CoordinateError(
                f"expected {self.ndim} coordinates, got {len(coords)}"
            )
        for axis, (c, start, end) in enumerate(
                zip(coords, self.starts, self.ends)):
            if not start <= c < end:
                raise CoordinateError(
                    f"coordinate {c} out of range [{start}, {end}) "
                    f"on axis {axis} ({self.dim_names[axis]})"
                )
        return coords

    def with_attribute(self, attribute: str) -> "ArrayMetadata":
        return ArrayMetadata(self.shape, self.chunk_shape, self.starts,
                             self.dim_names, self.dtype, attribute)

    def with_dtype(self, dtype) -> "ArrayMetadata":
        return ArrayMetadata(self.shape, self.chunk_shape, self.starts,
                             self.dim_names, dtype, self.attribute)

    def transposed(self) -> "ArrayMetadata":
        """Reverse every per-dimension tuple.

        This is the whole trick behind the paper's *opt2* (Section VI-C):
        transposing a vector touches metadata only, never the payload.
        """
        return ArrayMetadata(
            self.shape[::-1], self.chunk_shape[::-1], self.starts[::-1],
            self.dim_names[::-1], self.dtype, self.attribute,
        )

    def describe(self) -> str:
        dims = ", ".join(
            f"{name}[{start}:{end}:{interval}]"
            for name, start, end, interval in zip(
                self.dim_names, self.starts, self.ends, self.chunk_shape)
        )
        return (
            f"{self.attribute}<{self.dtype}>({dims}) "
            f"chunks={self.chunk_grid}"
        )
