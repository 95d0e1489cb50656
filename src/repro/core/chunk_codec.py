"""The Chunk value codec for the columnar shuffle and spill.

Spangle's shuffle traffic is mostly ``(chunk_id, Chunk)`` records, and a
Chunk is already columnar inside: a flat payload buffer plus bitmask
words. This codec lets :mod:`repro.engine.batches` ship a whole bucket
of chunks as seven flat arrays (:meth:`ChunkValues.buffers`) — per
record a mode byte, cell count and upper-mask length, plus the payload
and mask-word concatenations and their lengths — instead of a Python
object per chunk.

The chunk owns it: ``Chunk.pack_column`` calls :func:`probe_chunks`,
and the engine finds that hook on the value's type, so the engine layer
never imports core.

Byte-identity rules (unpacked chunks must pickle identically to the
originals):

- payloads must be 1-D, share one dtype, and hold no Python objects;
- the mode byte indexes :data:`repro.core.chunk.MODES`;
- a mask's milestone rank cache never travels (nor does it in a
  pickle): a ranked chunk unpacks as its never-ranked twin;
- SUPER_SPARSE masks ship compressed: the record's word run is the
  upper-level words followed by the stored non-zero lower words, and
  the hierarchical mask is rebuilt exactly (prefix counts are
  deterministic in the constructor).

Like every array-backed codec, shuffle packing refuses once the mean
bytes per chunk reach :data:`repro.engine.batches.VALUE_PACK_BYTE_LIMIT`
— big chunks move faster as references than as copied buffers. Spill
and the ChunkStore (:mod:`repro.io.store`, whose partition files hold
these buffers) pack with no limit.
"""

from __future__ import annotations

import numpy as np

from repro.bitmask import Bitmask, HierarchicalBitmask
from repro.bitmask.popcount import WORD_BITS
from repro.core.chunk import MODES, Chunk, ChunkMode
from repro.engine.batches import VALUE_PACK_BYTE_LIMIT, ArrayValues


def _flat_column(arrays) -> ArrayValues:
    """A column of 1-D same-dtype arrays as one ArrayValues buffer."""
    data = np.concatenate(arrays)
    lengths = np.fromiter((a.size for a in arrays), dtype=np.int64,
                          count=len(arrays))
    return ArrayValues(data, lengths, lengths[:, None])


class ChunkValues:
    """A packed column of :class:`Chunk` values."""

    __slots__ = ("modes", "num_cells", "payload", "words", "upper_lengths")

    def __init__(self, modes: np.ndarray, num_cells: np.ndarray,
                 payload: ArrayValues, words: ArrayValues,
                 upper_lengths: np.ndarray):
        self.modes = modes                  # uint8 indices into MODES
        self.num_cells = num_cells          # int64
        self.payload = payload              # one flat value buffer
        self.words = words                  # one flat uint64 buffer
        self.upper_lengths = upper_lengths  # int64; 0 for flat masks

    @classmethod
    def from_buffers(cls, modes, num_cells, upper_lengths, payload,
                     payload_lengths, words, word_lengths) -> "ChunkValues":
        """The column over the flat arrays :meth:`buffers` returns."""
        return cls(modes, num_cells,
                   ArrayValues(payload, payload_lengths,
                               payload_lengths[:, None]),
                   ArrayValues(words, word_lengths, word_lengths[:, None]),
                   upper_lengths)

    def buffers(self) -> tuple:
        """The column as seven flat arrays (the ChunkStore's file
        layout): modes, cell counts, upper lengths, payload and its
        lengths, words and their lengths."""
        return (self.modes, self.num_cells, self.upper_lengths,
                self.payload.data, self.payload.lengths,
                self.words.data, self.words.lengths)

    def slot_nbytes(self) -> np.ndarray:
        """Each record's bytes across :meth:`buffers`."""
        payload, words = self.payload, self.words
        fixed = (self.modes.itemsize + self.num_cells.itemsize
                 + self.upper_lengths.itemsize + payload.lengths.itemsize
                 + words.lengths.itemsize)
        return (fixed + payload.lengths * payload.data.itemsize
                + words.lengths * words.data.itemsize)

    def __len__(self) -> int:
        return self.modes.size

    @property
    def nbytes(self) -> int:
        return int(self.modes.nbytes + self.num_cells.nbytes
                   + self.upper_lengths.nbytes) \
            + self.payload.nbytes + self.words.nbytes

    def unpack(self) -> list:
        payloads = self.payload.unpack()
        word_runs = self.words.unpack()
        out = []
        for i in range(self.modes.size):
            mode = MODES[self.modes[i]]
            cells = int(self.num_cells[i])
            run = word_runs[i]
            if mode is ChunkMode.SUPER_SPARSE:
                split = int(self.upper_lengths[i])
                upper_bits = (cells + WORD_BITS - 1) // WORD_BITS
                mask = HierarchicalBitmask(
                    cells, Bitmask(upper_bits, run[:split].copy()),
                    run[split:])
            else:
                mask = Bitmask(cells, run)
            out.append(Chunk(mode, payloads[i], mask, cells))
        return out

    def gather(self, idx: np.ndarray) -> "ChunkValues":
        return ChunkValues(self.modes[idx], self.num_cells[idx],
                           self.payload.gather(idx),
                           self.words.gather(idx),
                           self.upper_lengths[idx])


def _mask_words(chunk: Chunk):
    """``(word_run, upper_length)`` for one chunk's mask, or None when
    the mask is not the type its mode builds."""
    mask = chunk.mask
    if chunk.mode is ChunkMode.SUPER_SPARSE:
        if type(mask) is not HierarchicalBitmask:
            return None
        upper = mask._upper
        return (np.concatenate([upper.words, mask._stored_words]),
                upper.words.size)
    if type(mask) is not Bitmask:
        return None
    return mask.words, 0


def probe_chunks(values, byte_limit=VALUE_PACK_BYTE_LIMIT):
    """``ChunkValues`` for a uniform column of chunks, or None.

    ``byte_limit`` is the mean-bytes-per-chunk refusal threshold;
    ``None`` packs unconditionally (the spill path wants exactly that —
    a spilled partition is large by definition, and on disk a copied
    compressed buffer always beats pickled objects).
    """
    first = values[0]
    if type(first) is not Chunk:
        return None
    dtype = first.payload.dtype
    if dtype.hasobject:
        return None
    modes = np.empty(len(values), dtype=np.uint8)
    num_cells = np.empty(len(values), dtype=np.int64)
    upper_lengths = np.zeros(len(values), dtype=np.int64)
    payloads = []
    word_runs = []
    total_bytes = 0
    for i, chunk in enumerate(values):
        if type(chunk) is not Chunk:
            return None
        payload = chunk.payload
        if (type(payload) is not np.ndarray or payload.dtype != dtype
                or payload.ndim != 1):
            return None
        packed_mask = _mask_words(chunk)
        if packed_mask is None:
            return None
        run, upper_length = packed_mask
        modes[i] = MODES.index(chunk.mode)
        num_cells[i] = chunk.num_cells
        upper_lengths[i] = upper_length
        payloads.append(payload)
        word_runs.append(run)
        total_bytes += payload.nbytes + run.nbytes
    if (byte_limit is not None
            and total_bytes >= byte_limit * len(values)):
        return None
    return ChunkValues(modes, num_cells, _flat_column(payloads),
                       _flat_column(word_runs), upper_lengths)
