"""Chunks: payload + bitmask in three storage modes (Sections III-B, IV-A).

A chunk holds the cells of one block of the array:

- **DENSE** — the payload stores every cell (invalid cells hold a fill
  value); the bitmask marks validity; access by offset is O(1).
- **SPARSE** — invalid cells are physically dropped; a cell's payload
  slot is the *rank* of its bit in the flat bitmask.
- **SUPER_SPARSE** — like sparse, but the bitmask itself is the
  two-level :class:`HierarchicalBitmask`, eliding all-zero words.

Mode selection (:func:`choose_mode`) follows the paper's policy: no
compression when the chunk is mostly valid, flat-bitmask compression for
ordinary sparse data, and the hierarchical bitmask when so few cells are
valid that the flat bitmask would dominate the chunk's footprint.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.bitmask import Bitmask, HierarchicalBitmask
from repro.engine.batches import canonical_dtype
from repro.errors import ArrayError, ModeError


class ChunkMode(enum.Enum):
    DENSE = "dense"
    SPARSE = "sparse"
    SUPER_SPARSE = "super_sparse"


#: density at or above which compression stops paying for itself
DENSE_THRESHOLD = 0.5
#: density below which the hierarchical bitmask usually wins
SUPER_SPARSE_THRESHOLD = 1.0 / 256.0


def choose_mode(density: float) -> ChunkMode:
    """Pick a storage mode from the fraction of valid cells."""
    if density >= DENSE_THRESHOLD:
        return ChunkMode.DENSE
    if density < SUPER_SPARSE_THRESHOLD:
        return ChunkMode.SUPER_SPARSE
    return ChunkMode.SPARSE


class Chunk:
    """One block of an array: values for the valid cells plus their mask.

    Construct through :meth:`from_dense` (values + validity) or
    :meth:`from_sparse` (valid offsets + values); the constructor itself
    is the low-level path that trusts its arguments.
    """

    __slots__ = ("mode", "payload", "mask", "num_cells")

    def __init__(self, mode: ChunkMode, payload: np.ndarray, mask,
                 num_cells: int):
        self.mode = mode
        self.payload = payload
        self.mask = mask
        self.num_cells = num_cells

    def __setstate__(self, state) -> None:
        # re-intern the unpickled payload dtype (the mask re-interns
        # its own), so a chunk that crossed a process boundary pickles
        # byte-identically to one built in place
        for name, value in state[1].items():
            setattr(self, name, value)
        self.payload = canonical_dtype(self.payload)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_dense(cls, values, valid=None, mode: ChunkMode = None) -> "Chunk":
        """Build a chunk from a full value array and a validity mask.

        ``valid=None`` means every cell is valid. ``mode=None`` applies
        the density policy.
        """
        values = np.asarray(values).ravel()
        if valid is None:
            valid = np.ones(values.size, dtype=bool)
        else:
            valid = np.asarray(valid, dtype=bool).ravel()
            if valid.size != values.size:
                raise ArrayError(
                    f"validity length {valid.size} != value length "
                    f"{values.size}"
                )
        num_cells = values.size
        density = float(valid.sum()) / num_cells if num_cells else 0.0
        if mode is None:
            mode = choose_mode(density)
        if mode is ChunkMode.DENSE:
            payload = values.copy()
            payload[~valid] = 0
            return cls(mode, payload, Bitmask.from_bools(valid), num_cells)
        if mode is ChunkMode.SPARSE:
            return cls(mode, values[valid].copy(),
                       Bitmask.from_bools(valid), num_cells)
        if mode is ChunkMode.SUPER_SPARSE:
            return cls(mode, values[valid].copy(),
                       HierarchicalBitmask.from_bools(valid), num_cells)
        raise ModeError(f"unknown chunk mode {mode!r}")

    @classmethod
    def from_sparse(cls, num_cells: int, offsets, values,
                    mode: ChunkMode = None) -> "Chunk":
        """Build a chunk from valid offsets and their values.

        Offsets must be unique; they are sorted into payload order.
        """
        offsets = np.asarray(offsets, dtype=np.int64).ravel()
        values = np.asarray(values).ravel()
        if offsets.size != values.size:
            raise ArrayError(
                f"{offsets.size} offsets but {values.size} values"
            )
        if offsets.size and (offsets.min() < 0
                             or offsets.max() >= num_cells):
            raise ArrayError(
                f"offsets out of range [0, {num_cells})"
            )
        order = np.argsort(offsets, kind="stable")
        offsets = offsets[order]
        values = values[order]
        if offsets.size > 1 and (np.diff(offsets) == 0).any():
            raise ArrayError("duplicate offsets in sparse chunk input")
        density = offsets.size / num_cells if num_cells else 0.0
        if mode is None:
            mode = choose_mode(density)
        if mode is ChunkMode.DENSE:
            dense = np.zeros(num_cells, dtype=values.dtype)
            dense[offsets] = values
            valid = np.zeros(num_cells, dtype=bool)
            valid[offsets] = True
            return cls(mode, dense, Bitmask.from_bools(valid), num_cells)
        if mode is ChunkMode.SPARSE:
            return cls(mode, values.copy(),
                       Bitmask.from_indices(num_cells, offsets), num_cells)
        if mode is ChunkMode.SUPER_SPARSE:
            flat = Bitmask.from_indices(num_cells, offsets)
            return cls(mode, values.copy(),
                       HierarchicalBitmask.from_bitmask(flat), num_cells)
        raise ModeError(f"unknown chunk mode {mode!r}")

    @classmethod
    def empty(cls, num_cells: int, dtype=np.float64) -> "Chunk":
        return cls.from_sparse(num_cells, [], np.array([], dtype=dtype))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def valid_count(self) -> int:
        if self.mode is ChunkMode.DENSE:
            return self.mask.count()
        return self.payload.size

    @property
    def density(self) -> float:
        if self.num_cells == 0:
            return 0.0
        return self.valid_count / self.num_cells

    @property
    def dtype(self):
        return self.payload.dtype

    @property
    def nbytes(self) -> int:
        """In-memory footprint: payload plus (possibly compressed) mask."""
        return int(self.payload.nbytes) + int(self.mask.nbytes)

    def flat_mask(self) -> Bitmask:
        """The validity mask as a flat :class:`Bitmask`, whatever the mode."""
        if isinstance(self.mask, HierarchicalBitmask):
            return self.mask.to_bitmask()
        return self.mask

    def valid_bools(self) -> np.ndarray:
        return self.flat_mask().to_bools()

    def indices(self) -> np.ndarray:
        """Offsets of valid cells, ascending (payload order)."""
        return self.flat_mask().indices()

    # ------------------------------------------------------------------
    # cell access
    # ------------------------------------------------------------------

    def get(self, offset: int, rank_strategy: str = "milestone"):
        """Value at ``offset``, or None when the cell is invalid.

        Dense chunks index the payload directly; compressed chunks pay a
        rank query on the bitmask — this asymmetry is exactly what Fig. 8
        measures.
        """
        if not 0 <= offset < self.num_cells:
            raise ArrayError(
                f"offset {offset} out of range [0, {self.num_cells})"
            )
        if self.mode is ChunkMode.DENSE:
            if not self.mask.get(offset):
                return None
            return self.payload[offset]
        if not self.mask.get(offset):
            return None
        if isinstance(self.mask, HierarchicalBitmask):
            slot = self.mask.rank(offset)
        else:
            slot = self.mask.rank(offset, rank_strategy)
        return self.payload[slot]

    def values(self) -> np.ndarray:
        """Values of the valid cells, in offset order."""
        if self.mode is ChunkMode.DENSE:
            return self.payload[self.valid_bools()]
        return self.payload

    def to_dense(self, fill=0) -> np.ndarray:
        """Full cell array with ``fill`` in the invalid slots."""
        if self.mode is ChunkMode.DENSE:
            if fill == 0:
                return self.payload.copy()
            out = self.payload.copy()
            out[~self.valid_bools()] = fill
            return out
        out = np.full(self.num_cells, fill, dtype=self.payload.dtype)
        out[self.indices()] = self.payload
        return out

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------

    def convert(self, mode: ChunkMode) -> "Chunk":
        """Re-encode in another storage mode (contents unchanged)."""
        if mode is self.mode:
            return self
        return Chunk.from_sparse(self.num_cells, self.indices(),
                                 self.values(), mode=mode)

    def repack(self) -> tuple:
        """Re-run the density policy on the *current* density.

        Returns ``(chunk, changed)``: the chunk re-encoded in the mode
        :func:`choose_mode` now picks (``self`` untouched when the mode
        already matches). Filters shrink validity without changing the
        encoding, so a chunk built DENSE can drift far below
        :data:`DENSE_THRESHOLD`; repacking realizes the compression the
        policy would have chosen had the chunk been built at this
        density.
        """
        target = choose_mode(self.density)
        if target is self.mode:
            return self, False
        return self.convert(target), True

    def map_values(self, func, mode: ChunkMode = None) -> "Chunk":
        """Apply a vectorized function to the valid values only."""
        new_values = np.asarray(func(self.values()))
        if new_values.shape != self.values().shape:
            raise ArrayError(
                "map_values function must preserve the value count"
            )
        return Chunk.from_sparse(self.num_cells, self.indices(), new_values,
                                 mode=mode or self.mode)

    def filter(self, predicate, mode: ChunkMode = None) -> "Chunk":
        """Keep valid cells where ``predicate(values)`` is True.

        ``predicate`` receives the vector of valid values and returns a
        boolean vector; failing cells become invalid (their bits drop to
        zero and, in compressed modes, their payload slots vanish).
        """
        values = self.values()
        keep = np.asarray(predicate(values), dtype=bool)
        if keep.shape != values.shape:
            raise ArrayError("filter predicate must return one bool per value")
        if mode is None:
            density = int(keep.sum()) / self.num_cells \
                if self.num_cells else 0.0
            mode = choose_mode(density)
        keep_cells = np.zeros(self.num_cells, dtype=bool)
        keep_cells[self.indices()[keep]] = True
        return _build_from_bools(self.num_cells, keep_cells,
                                 values[keep], mode)

    def and_mask(self, other_mask: Bitmask, mode: ChunkMode = None) -> "Chunk":
        """Restrict validity to ``mask AND other_mask`` (Fig. 4a/4b).

        This is how Subarray's virtual bitmask and the MaskRDD are applied
        to an attribute. The bitmask AND itself is one word-level
        operation; rebuilding the payload is a single gather.
        """
        if other_mask.num_bits != self.num_cells:
            raise ArrayError(
                f"mask length {other_mask.num_bits} != chunk cells "
                f"{self.num_cells}"
            )
        combined = self.flat_mask() & other_mask
        if combined == self.flat_mask():
            return self            # nothing was masked out
        keep = combined.to_bools()
        if mode is None:
            density = combined.count() / self.num_cells \
                if self.num_cells else 0.0
            mode = choose_mode(density)
        if self.mode is ChunkMode.DENSE:
            compact = self.payload[keep]
        else:
            # payload order == ascending offsets, so indexing the keep
            # mask by the valid offsets selects the surviving slots
            compact = self.payload[keep[self.indices()]]
        return _build_from_bools(self.num_cells, keep, compact, mode)

    def _values_at_offsets(self, offsets: np.ndarray) -> np.ndarray:
        """Values at the given valid offsets (all must be valid)."""
        if self.mode is ChunkMode.DENSE:
            return self.payload[offsets]
        own = self.indices()
        slots = np.searchsorted(own, offsets)
        return self.payload[slots]

    # ------------------------------------------------------------------
    # binary operations
    # ------------------------------------------------------------------

    def elementwise(self, other: "Chunk", op, how: str = "and",
                    fill=0) -> "Chunk":
        """Combine two chunks cell-by-cell.

        ``how="and"`` keeps cells valid on *both* sides (the bitwise-AND
        fast path of Fig. 5 — invalid pairs are never computed);
        ``how="or"`` keeps cells valid on either side, with ``fill``
        standing in for the missing operand.
        """
        if other.num_cells != self.num_cells:
            raise ArrayError(
                f"chunk size mismatch: {self.num_cells} vs "
                f"{other.num_cells}"
            )
        left_mask = self.flat_mask()
        right_mask = other.flat_mask()
        if how == "and":
            combined = left_mask & right_mask
            offsets = combined.indices()
            left_values = self._values_at_offsets(offsets)
            right_values = other._values_at_offsets(offsets)
            result = op(left_values, right_values)
            return Chunk.from_sparse(self.num_cells, offsets, result)
        if how == "or":
            combined = left_mask | right_mask
            offsets = combined.indices()
            left_dense = self.to_dense(fill)
            right_dense = other.to_dense(fill)
            result = op(left_dense[offsets], right_dense[offsets])
            return Chunk.from_sparse(self.num_cells, offsets, result)
        raise ArrayError(f"unknown join mode {how!r}; use 'and' or 'or'")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chunk)
            and self.num_cells == other.num_cells
            and np.array_equal(self.indices(), other.indices())
            and np.allclose(self.values().astype(np.float64),
                            other.values().astype(np.float64))
        )

    def __repr__(self) -> str:
        return (
            f"Chunk(mode={self.mode.value}, cells={self.num_cells}, "
            f"valid={self.valid_count}, {self.nbytes}B)"
        )


def chunk_exact_size(obj) -> int:
    """Exact resident bytes of a :class:`Chunk`, or None for other types.

    Unlike :attr:`Chunk.nbytes` (payload + advertised mask bytes), this
    also counts the lazily built milestone rank caches and the
    hierarchical mask's stored prefix array — every array the chunk
    actually pins in memory. Registered with the engine's size
    estimator (:func:`repro.engine.sizing.register_sizer`) so cache
    budgets and eviction scores see true footprints.
    """
    if type(obj) is not Chunk:
        return None
    mask = obj.mask
    total = int(obj.payload.nbytes)
    if isinstance(mask, HierarchicalBitmask):
        total += int(mask._upper.words.nbytes)
        total += int(mask._stored_words.nbytes)
        total += int(mask._stored_prefix.nbytes)
        if mask._upper._milestones is not None:
            total += mask._upper._milestones.nbytes
    else:
        total += int(mask.words.nbytes)
        if mask._milestones is not None:
            total += mask._milestones.nbytes
    return total


def repack_records(records):
    """Density-repack every chunk in a cached partition.

    The block cache's admission repacker
    (:func:`repro.engine.storage.register_repacker`): handles bare
    Chunk records and ``(key, Chunk)`` pairs — the shapes ArrayRDD
    partitions actually take. Returns ``(new_records, chunks_repacked,
    bytes_saved)``, or None when no chunk changed mode (the partition
    is admitted as-is and no counters move). ``bytes_saved`` is the net
    exact-size reduction, so the cache ledger shrinks by the same
    amount the counter reports.
    """
    out = None
    count = 0
    saved = 0
    for i, record in enumerate(records):
        if type(record) is Chunk:
            new, changed = record.repack()
            if changed:
                if out is None:
                    out = list(records)
                saved += chunk_exact_size(record) - chunk_exact_size(new)
                out[i] = new
                count += 1
        elif (type(record) is tuple and len(record) == 2
              and type(record[1]) is Chunk):
            new, changed = record[1].repack()
            if changed:
                if out is None:
                    out = list(records)
                saved += (chunk_exact_size(record[1])
                          - chunk_exact_size(new))
                out[i] = (record[0], new)
                count += 1
    if count == 0:
        return None
    return out, count, saved


def _build_from_bools(num_cells: int, keep: np.ndarray,
                      compact_values: np.ndarray,
                      mode: ChunkMode) -> Chunk:
    """Fast chunk construction from a keep-mask and compacted values.

    Skips the sorting/validation of :meth:`Chunk.from_sparse` — callers
    guarantee ``compact_values`` is in ascending-offset order and
    ``keep`` has exactly that many set bits.
    """
    if mode is ChunkMode.DENSE:
        payload = np.zeros(num_cells, dtype=compact_values.dtype)
        payload[keep] = compact_values
        return Chunk(mode, payload, Bitmask.from_bools(keep), num_cells)
    if mode is ChunkMode.SPARSE:
        return Chunk(mode, compact_values, Bitmask.from_bools(keep),
                     num_cells)
    return Chunk(ChunkMode.SUPER_SPARSE, compact_values,
                 HierarchicalBitmask.from_bools(keep), num_cells)
