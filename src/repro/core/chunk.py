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


#: the one mode table: :func:`choose_modes`, a batch's ``modes`` and the
#: codec's mode byte (the format-2 ChunkStore's on-disk byte) index it
MODES = tuple(ChunkMode)

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


def choose_modes(counts, num_cells) -> np.ndarray:
    """:func:`choose_mode` per chunk, as indices into :data:`MODES`."""
    density = np.divide(counts, num_cells, out=np.zeros(len(counts)),
                        where=num_cells > 0)
    return np.add(density < DENSE_THRESHOLD,
                  density < SUPER_SPARSE_THRESHOLD, dtype=np.intp)


class Chunk:
    """One block of an array: values for the valid cells plus their mask.

    Construct through :meth:`from_dense` (values + validity) or
    :meth:`from_sparse` (valid offsets + values), which check their
    input; every builder ends in :meth:`assemble`. The constructor
    itself is the low-level path that trusts its arguments.
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
        if mode is None:
            mode = choose_mode(float(valid.sum()) / values.size
                               if values.size else 0.0)
        elif mode not in MODES:
            raise ModeError(f"unknown chunk mode {mode!r}")
        if mode is ChunkMode.DENSE:
            payload = values.copy()
            payload[~valid] = 0
        else:
            payload = values[valid]
        return cls.assemble(mode, values.size,
                            Bitmask.from_bools(valid).words, payload)

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
        if mode is None:
            mode = choose_mode(offsets.size / num_cells if num_cells else 0.0)
        elif mode not in MODES:
            raise ModeError(f"unknown chunk mode {mode!r}")
        valid = np.zeros(num_cells, dtype=bool)
        valid[offsets] = True
        if mode is ChunkMode.DENSE:
            payload = np.zeros(num_cells, dtype=values.dtype)
            payload[offsets] = values
        else:
            payload = values
        return cls.assemble(mode, num_cells,
                            Bitmask.from_bools(valid).words, payload)

    @classmethod
    def assemble(cls, mode: ChunkMode, num_cells: int, words,
                 payload: np.ndarray) -> "Chunk":
        """The chunk over a flat mask's ``words`` and a ``payload`` in
        ``mode``'s layout (every cell for DENSE, else the valid cells
        in offset order), owning both; ``mode`` is one of :data:`MODES`."""
        mask = Bitmask(num_cells, words)
        if mode is ChunkMode.SUPER_SPARSE:
            mask = HierarchicalBitmask.from_bitmask(mask)
        return cls(mode, payload, mask, num_cells)

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

    @property
    def resident_nbytes(self) -> int:
        """Exact bytes the chunk pins in memory.

        Unlike :attr:`nbytes` (payload + advertised mask bytes), this
        also counts the lazily built milestone rank caches and the
        hierarchical mask's stored prefix array. The engine's size
        estimator reads it, so cache budgets and eviction see true
        footprints.
        """
        mask = self.mask
        total = int(self.payload.nbytes)
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

    @staticmethod
    def pack_column(values, byte_limit):
        """A column of chunks packed for the shuffle or spill, or None
        (the codec :func:`repro.engine.batches.pack_own_column` calls;
        see :func:`repro.core.chunk_codec.probe_chunks`)."""
        from repro.core.chunk_codec import probe_chunks

        return probe_chunks(values, byte_limit)

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

    def get(self, offset: int):
        """Value at ``offset``, or None when the cell is invalid.

        Dense chunks index the payload directly; compressed chunks pay a
        rank query on the bitmask — this asymmetry is exactly what Fig. 8
        measures.
        """
        if not 0 <= offset < self.num_cells:
            raise ArrayError(
                f"offset {offset} out of range [0, {self.num_cells})"
            )
        if not self.mask.get(offset):
            return None
        if self.mode is ChunkMode.DENSE:
            return self.payload[offset]
        return self.payload[self.mask.rank(offset)]

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chunk)
            and self.num_cells == other.num_cells
            and np.array_equal(self.indices(), other.indices())
            and np.allclose(self.values().astype(np.float64),
                            other.values().astype(np.float64),
                            equal_nan=True)
        )

    def __repr__(self) -> str:
        return (
            f"Chunk(mode={self.mode.value}, cells={self.num_cells}, "
            f"valid={self.valid_count}, {self.nbytes}B)"
        )

