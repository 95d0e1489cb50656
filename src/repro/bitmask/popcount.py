"""Population-count strategies (Section IV-B of the paper).

The paper contrasts three ways to count set bits:

- a **naive** per-word loop (Wegner's trick) — the slow baseline whose
  cost blows up with chunk size in Fig. 8;
- the JVM **builtin** ``Long.bitCount`` intrinsic — here, Python's
  ``int.bit_count``;
- a **vectorized** counter in the spirit of the Muła/Kurz/Lemire AVX2
  algorithm — here, ``np.bitwise_count``, one ufunc over every word of
  the mask (numpy lowers it to the CPU's popcount instruction).

For chunks larger than 64 words the paper adds *milestones*: cumulative
counts stored every 64 words so a random-access rank only scans one
64-word block. :class:`Milestones` implements that.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.engine.batches import canonical_dtype

WORD_BITS = 64
MILESTONE_STRIDE_WORDS = 64


class RankCounters(threading.local):
    """Lightweight, thread-local rank-query counters.

    Every ``rank`` entry point in the bitmask package bumps one of
    these plain-int attributes — an unlocked, thread-local increment,
    cheap enough to stay on even in hot loops. Being thread-local,
    a task (which runs entirely on one thread) can attribute the
    queries *it* issued by diffing :func:`rank_counts` before/after,
    and the counts are identical between the serial and threaded
    schedulers. The tracing layer uses exactly that to annotate fused
    ChunkPlan spans.
    """

    def __init__(self):
        self.bitmask_rank = 0       # Bitmask.rank calls (any strategy)
        self.milestone_rank = 0     # Milestones.rank calls
        self.hierarchical_rank = 0  # HierarchicalBitmask.rank calls


RANK_COUNTERS = RankCounters()


def rank_counts() -> dict:
    """The calling thread's rank-query counts (a plain dict copy)."""
    counters = RANK_COUNTERS
    return {
        "bitmask_rank": counters.bitmask_rank,
        "milestone_rank": counters.milestone_rank,
        "hierarchical_rank": counters.hierarchical_rank,
    }


def reset_rank_counts() -> None:
    """Zero the calling thread's rank-query counters."""
    counters = RANK_COUNTERS
    counters.bitmask_rank = 0
    counters.milestone_rank = 0
    counters.hierarchical_rank = 0


def popcount_word(word: int) -> int:
    """Set bits in a single 64-bit word via the builtin intrinsic."""
    return int(word).bit_count()


def popcount_words_naive(words: np.ndarray) -> int:
    """Wegner's loop per word: clear the lowest set bit until zero.

    Deliberately the slow path — this is the paper's "naive" series in
    Fig. 8, kept as a measurable baseline.
    """
    total = 0
    for word in words:
        w = int(word)
        while w:
            w &= w - 1
            total += 1
    return total


def popcount_words_builtin(words: np.ndarray) -> int:
    """Per-word ``int.bit_count`` (the JVM-intrinsic analogue).

    Deliberately per-word — that is the strategy being measured — but
    ``tolist()`` converts the whole array to Python ints in one C call
    instead of boxing one numpy scalar per loop iteration.
    """
    return sum(word.bit_count() for word in words.tolist())


def popcount_words_vectorized(words: np.ndarray) -> int:
    """Whole-array popcount: one ``np.bitwise_count`` (the "SIMD" path)."""
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def per_word_popcounts(words: np.ndarray) -> np.ndarray:
    """Vector of set-bit counts, one entry per word."""
    return np.bitwise_count(words).astype(np.int64)


def cumulative_popcounts(words: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of per-word popcounts (length ``size + 1``)."""
    counts = per_word_popcounts(words)
    out = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class Milestones:
    """Cumulative popcounts every ``stride`` words.

    ``rank(words, bit_pos)`` then touches at most one stride of words
    instead of everything before ``bit_pos`` — constant-ish time for any
    chunk size, as Section IV-B-2 requires.
    """

    def __init__(self, words: np.ndarray,
                 stride_words: int = MILESTONE_STRIDE_WORDS):
        if stride_words <= 0:
            raise ValueError("stride_words must be positive")
        self.stride_words = stride_words
        counts = per_word_popcounts(words)
        num_blocks = (words.size + stride_words - 1) // stride_words
        self._block_prefix = np.zeros(num_blocks + 1, dtype=np.int64)
        if num_blocks:
            # per-block sums in one reduceat, prefix in one cumsum — no
            # Python loop over blocks
            starts = np.arange(num_blocks, dtype=np.intp) * stride_words
            block_sums = np.add.reduceat(counts, starts)
            np.cumsum(block_sums, out=self._block_prefix[1:])

    def __setstate__(self, state) -> None:
        # setattr interns the attribute names, as the default does
        for name, value in state.items():
            setattr(self, name, value)
        self._block_prefix = canonical_dtype(self._block_prefix)

    @property
    def nbytes(self) -> int:
        return int(self._block_prefix.nbytes)

    def total(self) -> int:
        return int(self._block_prefix[-1])

    def rank(self, words: np.ndarray, bit_pos: int) -> int:
        """Set bits strictly before ``bit_pos``."""
        RANK_COUNTERS.milestone_rank += 1
        if bit_pos <= 0:
            return 0
        word_index, bit_offset = divmod(bit_pos, WORD_BITS)
        block = word_index // self.stride_words
        count = int(self._block_prefix[block])
        lo = block * self.stride_words
        if word_index > lo:
            count += popcount_words_vectorized(words[lo:word_index])
        if bit_offset and word_index < words.size:
            partial = int(words[word_index]) & ((1 << bit_offset) - 1)
            count += partial.bit_count()
        return count
