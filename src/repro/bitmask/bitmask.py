"""The Bitmask: one validity bit per cell, packed into 64-bit words.

Bit *i* lives in word ``i // 64`` at (little-endian) bit position
``i % 64``, which lines up with ``numpy.packbits(bitorder="little")`` so
conversions to and from boolean arrays are single vectorized calls.

``rank`` (population count up to a position) is the operation everything
else in Spangle leans on: a sparse chunk finds a cell's payload slot by
ranking its bitmask. The ``strategy`` argument selects between the
paper's naive / builtin / vectorized / milestone implementations so the
Fig. 8 benchmark can compare them on the same data.
"""

from __future__ import annotations

import numpy as np

from repro.bitmask.popcount import (
    RANK_COUNTERS,
    WORD_BITS,
    Milestones,
    popcount_words_builtin,
    popcount_words_naive,
    popcount_words_vectorized,
)
from repro.bitmask.stacked import set_positions
from repro.engine.batches import canonical_dtype
from repro.errors import ArrayError

_STRATEGIES = ("vectorized", "builtin", "naive", "milestone")


def _words_for_bits(num_bits: int) -> int:
    return (num_bits + WORD_BITS - 1) // WORD_BITS


class Bitmask:
    """A fixed-length bitmask over ``num_bits`` cells."""

    __slots__ = ("_words", "num_bits", "_milestones")

    def __init__(self, num_bits: int, words: np.ndarray = None):
        if num_bits < 0:
            raise ArrayError(f"num_bits must be >= 0, got {num_bits}")
        self.num_bits = num_bits
        if words is None:
            words = np.zeros(_words_for_bits(num_bits), dtype=np.uint64)
        else:
            words = np.ascontiguousarray(words, dtype=np.uint64)
            if words.size != _words_for_bits(num_bits):
                raise ArrayError(
                    f"{num_bits} bits need {_words_for_bits(num_bits)} "
                    f"words, got {words.size}"
                )
        self._words = words
        self._milestones = None
        self._mask_tail()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, num_bits: int) -> "Bitmask":
        return cls(num_bits)

    @classmethod
    def ones(cls, num_bits: int) -> "Bitmask":
        words = np.full(_words_for_bits(num_bits),
                        np.iinfo(np.uint64).max, dtype=np.uint64)
        return cls(num_bits, words)

    @classmethod
    def from_bools(cls, flags) -> "Bitmask":
        flags = np.asarray(flags, dtype=bool).ravel()
        packed = np.packbits(flags, bitorder="little")
        if flags.size % WORD_BITS:
            packed = np.concatenate(
                [packed, np.zeros(-packed.size % 8, dtype=np.uint8)])
        return cls(flags.size, packed.view(np.uint64))

    @classmethod
    def from_indices(cls, num_bits: int, indices) -> "Bitmask":
        flags = np.zeros(num_bits, dtype=bool)
        flags[np.asarray(indices, dtype=np.int64)] = True
        return cls.from_bools(flags)

    def copy(self) -> "Bitmask":
        return Bitmask(self.num_bits, self._words.copy())

    def __getstate__(self):
        # the milestone rank cache is derived from the words: it never
        # travels, so a ranked mask pickles as a never-ranked one
        return self.num_bits, self._words

    def __setstate__(self, state) -> None:
        # unpickled words carry a dtype equal to numpy's singleton but
        # not it; re-interned, the mask pickles as a fresh one does
        self.num_bits, words = state
        self._words = canonical_dtype(words)
        self._milestones = None

    # ------------------------------------------------------------------
    # bit access
    # ------------------------------------------------------------------

    def get(self, position: int) -> bool:
        self._check_position(position)
        word, offset = divmod(position, WORD_BITS)
        return bool((int(self._words[word]) >> offset) & 1)

    def set(self, position: int, value: bool = True) -> None:
        self._check_position(position)
        word, offset = divmod(position, WORD_BITS)
        if value:
            self._words[word] |= np.uint64(1 << offset)
        else:
            self._words[word] &= np.uint64(~(1 << offset)
                                           & 0xFFFFFFFFFFFFFFFF)
        self._milestones = None

    def clear(self, position: int) -> None:
        self.set(position, False)

    def set_range(self, start: int, stop: int, value: bool = True) -> None:
        """Set bits in ``[start, stop)``; clamped to the mask length."""
        start = max(0, start)
        stop = min(self.num_bits, stop)
        if start >= stop:
            return
        flags = self.to_bools()
        flags[start:stop] = value
        self._words = Bitmask.from_bools(flags)._words
        self._milestones = None

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------

    def count(self, strategy: str = "vectorized") -> int:
        """Total number of set bits."""
        if strategy == "naive":
            return popcount_words_naive(self._words)
        if strategy == "builtin":
            return popcount_words_builtin(self._words)
        if strategy in ("vectorized", "milestone"):
            return popcount_words_vectorized(self._words)
        raise ArrayError(
            f"unknown popcount strategy {strategy!r}; "
            f"expected one of {_STRATEGIES}"
        )

    def rank(self, position: int, strategy: str = "milestone") -> int:
        """Number of set bits strictly before ``position``.

        This is the payload-slot lookup for sparse chunks: if bit
        ``position`` is set, its value sits at payload index
        ``rank(position)``.
        """
        RANK_COUNTERS.bitmask_rank += 1
        if position <= 0:
            return 0
        position = min(position, self.num_bits)
        if strategy == "milestone":
            if self._milestones is None:
                self._milestones = Milestones(self._words)
            return self._milestones.rank(self._words, position)
        word_index, bit_offset = divmod(position, WORD_BITS)
        head = self._words[:word_index]
        if strategy == "naive":
            count = popcount_words_naive(head)
        elif strategy == "builtin":
            count = popcount_words_builtin(head)
        elif strategy == "vectorized":
            count = popcount_words_vectorized(head)
        else:
            raise ArrayError(
                f"unknown popcount strategy {strategy!r}; "
                f"expected one of {_STRATEGIES}"
            )
        if bit_offset and word_index < self._words.size:
            partial = int(self._words[word_index]) & ((1 << bit_offset) - 1)
            count += partial.bit_count()
        return count

    def select(self, k: int) -> int:
        """Position of the ``k``-th (0-based) set bit."""
        indices = self.indices()
        if not 0 <= k < indices.size:
            raise ArrayError(
                f"select({k}) out of range: only {indices.size} set bits"
            )
        return int(indices[k])

    def any(self) -> bool:
        return bool(self._words.any())

    def all(self) -> bool:
        return self.count() == self.num_bits

    def density(self) -> float:
        """Fraction of set bits (0.0 for an empty mask)."""
        if self.num_bits == 0:
            return 0.0
        return self.count() / self.num_bits

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def to_bools(self) -> np.ndarray:
        """One bool per bit: a fresh, writable array."""
        return np.unpackbits(self._words.view(np.uint8), count=self.num_bits,
                             bitorder="little").view(bool)

    def indices(self) -> np.ndarray:
        """Positions of set bits, ascending (int64)."""
        return set_positions(self._words)

    @property
    def words(self) -> np.ndarray:
        """The backing word array (do not mutate)."""
        return self._words

    @property
    def nbytes(self) -> int:
        return int(self._words.nbytes)

    # ------------------------------------------------------------------
    # bitwise algebra
    # ------------------------------------------------------------------

    def _binary(self, other: "Bitmask", op) -> "Bitmask":
        if not isinstance(other, Bitmask):
            return NotImplemented
        if other.num_bits != self.num_bits:
            raise ArrayError(
                f"bitmask length mismatch: {self.num_bits} vs "
                f"{other.num_bits}"
            )
        return Bitmask(self.num_bits, op(self._words, other._words))

    def __and__(self, other):
        return self._binary(other, np.bitwise_and)

    def __or__(self, other):
        return self._binary(other, np.bitwise_or)

    def __xor__(self, other):
        return self._binary(other, np.bitwise_xor)

    def __invert__(self) -> "Bitmask":
        return Bitmask(self.num_bits, np.bitwise_not(self._words))

    def and_not(self, other: "Bitmask") -> "Bitmask":
        """Bits set here but not in ``other`` (filter-style subtraction)."""
        return self._binary(other, lambda a, b: a & ~b)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _mask_tail(self) -> None:
        """Force bits beyond ``num_bits`` to zero (invariant)."""
        tail = self.num_bits % WORD_BITS
        if tail and self._words.size:
            keep = np.uint64((1 << tail) - 1)
            self._words[-1] &= keep

    def _check_position(self, position: int) -> None:
        if not 0 <= position < self.num_bits:
            raise ArrayError(
                f"bit position {position} out of range "
                f"[0, {self.num_bits})"
            )

    def __len__(self) -> int:
        return self.num_bits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bitmask)
            and self.num_bits == other.num_bits
            and np.array_equal(self._words, other._words)
        )

    def __hash__(self):
        raise TypeError("Bitmask is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"Bitmask(bits={self.num_bits}, set={self.count()}, "
            f"density={self.density():.3f})"
        )
