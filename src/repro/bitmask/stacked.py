"""Bit operations over many bitmasks at once.

A partition's flat bitmasks, concatenated into one word array, are one
bit space in which mask ``i`` starts at word ``bounds[i]``. Decoding,
ranking, testing and packing then take one numpy call each over the
whole partition instead of one per mask — the vectorised popcount of
Section IV-B taken across chunks. The chunk plan's batch pass and the
MaskRDD's zipped partitions are built on these.
"""

from __future__ import annotations

import numpy as np

from repro.bitmask.popcount import WORD_BITS


def stack_words(masks):
    """The flat masks' words in one array, and each mask's first word
    (``len(masks) + 1`` bounds)."""
    words = [mask.words for mask in masks]
    bounds = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum([row.size for row in words], out=bounds[1:])
    return np.concatenate(words), bounds


def set_positions(words) -> np.ndarray:
    """Positions of the set bits, ascending."""
    return np.flatnonzero(np.unpackbits(words.view(np.uint8),
                                        bitorder="little").view(bool))


def deposit(words, keep) -> np.ndarray:
    """A copy of ``words`` keeping its ``i``-th set bit iff ``keep[i]``."""
    octets = words.view(np.uint8)
    nonzero = np.flatnonzero(octets != 0)
    bits = np.unpackbits(octets[nonzero], bitorder="little").view(bool)
    bits[bits] = keep
    out = np.zeros(octets.size, dtype=np.uint8)
    out[nonzero] = np.packbits(bits, bitorder="little")
    return out.view(np.uint64)


def bits_at(words, positions) -> np.ndarray:
    """The bits at ``positions``, as bools."""
    shifts = (positions & (WORD_BITS - 1)).astype(np.uint64)
    return (words[positions >> 6] >> shifts) & np.uint64(1) != 0


#: the bits below each in-word bit position
_BELOW = (np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64)) \
    - np.uint64(1)


def ranks(words, positions) -> np.ndarray:
    """Set bits before each of ``positions`` (one rank per position)."""
    prefix = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(np.bitwise_count(words), out=prefix[1:])
    index = positions >> 6
    return prefix[index] + np.bitwise_count(
        words[index] & _BELOW[positions & (WORD_BITS - 1)])


def pack_positions(positions, num_words: int) -> np.ndarray:
    """``num_words`` words with exactly ``positions`` set."""
    bits = np.zeros(num_words * WORD_BITS, dtype=bool)
    bits[positions] = True
    return np.packbits(bits, bitorder="little").view(np.uint64)


def segments_any(words, bounds) -> np.ndarray:
    """Per mask (``bounds`` as from :func:`stack_words`): any bit set?"""
    out = np.zeros(bounds.size - 1, dtype=bool)
    filled = bounds[1:] > bounds[:-1]
    out[filled] = np.logical_or.reduceat(words != 0, bounds[:-1][filled])
    return out
