"""Two-level hierarchical bitmask for super-sparse chunks (Section IV-A).

When valid cells are very rare, a flat bitmask is mostly zero words and
its size dominates the chunk. The hierarchical form keeps:

- an *upper* bitmask with one bit per lower-level word — set iff that
  word contains any set bit; and
- only the *non-zero* lower-level words, in order.

An all-zero word costs one upper bit instead of 64 lower bits. Locating
a lower word is a rank query on the upper bitmask.
"""

from __future__ import annotations

import numpy as np

from repro.bitmask.bitmask import Bitmask
from repro.bitmask.popcount import (
    RANK_COUNTERS,
    WORD_BITS,
    per_word_popcounts,
    popcount_words_vectorized,
)
from repro.engine.batches import canonical_dtype
from repro.errors import ArrayError


class HierarchicalBitmask:
    """Compressed two-level view of a bitmask."""

    __slots__ = ("num_bits", "_upper", "_stored_words", "_stored_prefix")

    def __init__(self, num_bits: int, upper: Bitmask,
                 stored_words: np.ndarray):
        self.num_bits = num_bits
        self._upper = upper
        self._stored_words = np.ascontiguousarray(stored_words,
                                                  dtype=np.uint64)
        # exclusive prefix popcounts over stored words, for fast rank
        counts = per_word_popcounts(self._stored_words)
        prefix = np.zeros(self._stored_words.size + 1, dtype=np.int64)
        np.cumsum(counts, out=prefix[1:])
        self._stored_prefix = prefix

    def __setstate__(self, state) -> None:
        # re-intern unpickled dtypes (see Bitmask.__setstate__)
        for name, value in state[1].items():
            setattr(self, name, value)
        self._stored_words = canonical_dtype(self._stored_words)
        self._stored_prefix = canonical_dtype(self._stored_prefix)

    @classmethod
    def from_bitmask(cls, flat: Bitmask) -> "HierarchicalBitmask":
        words = flat.words
        nonzero = words != 0
        upper = Bitmask.from_bools(nonzero)
        return cls(flat.num_bits, upper, words[nonzero])

    @classmethod
    def from_bools(cls, flags) -> "HierarchicalBitmask":
        return cls.from_bitmask(Bitmask.from_bools(flags))

    def to_bitmask(self) -> Bitmask:
        num_words = self._upper.num_bits
        words = np.zeros(num_words, dtype=np.uint64)
        words[self._upper.to_bools()] = self._stored_words
        return Bitmask(self.num_bits, words)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def get(self, position: int) -> bool:
        if not 0 <= position < self.num_bits:
            raise ArrayError(
                f"bit position {position} out of range [0, {self.num_bits})"
            )
        word_index, offset = divmod(position, WORD_BITS)
        if not self._upper.get(word_index):
            return False
        stored_slot = self._upper.rank(word_index)
        return bool(
            (int(self._stored_words[stored_slot]) >> offset) & 1
        )

    def count(self) -> int:
        return popcount_words_vectorized(self._stored_words)

    def rank(self, position: int) -> int:
        """Set bits strictly before ``position``."""
        RANK_COUNTERS.hierarchical_rank += 1
        if position <= 0:
            return 0
        position = min(position, self.num_bits)
        word_index, offset = divmod(position, WORD_BITS)
        stored_before = self._upper.rank(word_index)
        count = int(self._stored_prefix[stored_before])
        if offset and word_index < self._upper.num_bits \
                and self._upper.get(word_index):
            word = int(self._stored_words[stored_before])
            count += (word & ((1 << offset) - 1)).bit_count()
        return count

    def indices(self) -> np.ndarray:
        return self.to_bitmask().indices()

    def density(self) -> float:
        if self.num_bits == 0:
            return 0.0
        return self.count() / self.num_bits

    @property
    def nbytes(self) -> int:
        """Upper-mask bytes + stored lower words only."""
        return int(self._upper.nbytes + self._stored_words.nbytes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HierarchicalBitmask)
            and self.num_bits == other.num_bits
            and self.to_bitmask() == other.to_bitmask()
        )

    def __repr__(self) -> str:
        return (
            f"HierarchicalBitmask(bits={self.num_bits}, "
            f"set={self.count()}, stored_words={self._stored_words.size})"
        )
