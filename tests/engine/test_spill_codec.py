"""Spill encoding as a property: every partition a cache may hold must
come back from disk byte-identical, and re-encode to the same bytes.

Which columns spill packed is policy, pinned here too: a value type's
own codec (``Chunk.pack_column``) runs without the shuffle's byte
limit, while the built-in array codec keeps it on disk as well.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Chunk, ChunkMode
from repro.engine.batches import VALUE_PACK_BYTE_LIMIT
from repro.engine.spill import decode_block, encode_block
from repro.matrix.offsets import OffsetArrayChunk

#: float64 elements at which an array column reaches the byte limit
_LIMIT_ITEMS = VALUE_PACK_BYTE_LIMIT // 8

_DENSITY = {ChunkMode.DENSE: 0.9, ChunkMode.SPARSE: 0.1,
            ChunkMode.SUPER_SPARSE: 0.002}


def _random(seed, size):
    return np.random.default_rng(seed).standard_normal(size)


@st.composite
def _chunks(draw):
    mode = draw(st.sampled_from(list(ChunkMode)))
    cells = draw(st.sampled_from([64, 512, 2048]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    valid = rng.random(cells) < _DENSITY[mode]
    valid[seed % cells] = True
    return Chunk.from_dense(rng.standard_normal(cells), valid, mode=mode)


@st.composite
def _offset_chunks(draw):
    cells = draw(st.sampled_from([64, 1024]))
    seed = draw(st.integers(0, 2**16))
    nnz = draw(st.integers(0, cells // 16))
    offsets = np.random.default_rng(seed).choice(cells, nnz, replace=False)
    return OffsetArrayChunk(cells, offsets, _random(seed, nnz))


_VALUES = {
    "floats": st.floats(),
    "ints": st.integers(),
    "pairs": st.tuples(st.floats(), st.integers()),
    "small_arrays": st.builds(_random, st.integers(0, 2**16),
                              st.integers(0, _LIMIT_ITEMS // 4)),
    "big_arrays": st.builds(_random, st.integers(0, 2**16),
                            st.integers(_LIMIT_ITEMS, 2 * _LIMIT_ITEMS)),
    "chunks": _chunks(),
    "offset_chunks": _offset_chunks(),
}
_VALUES["mixed"] = st.one_of(*_VALUES.values())


@st.composite
def _partitions(draw):
    """``(kind, records)``: one partition of ``(int, value)`` records
    whose values are all of one kind (or any kind, for "mixed")."""
    kind = draw(st.sampled_from(sorted(_VALUES)))
    values = draw(st.lists(_VALUES[kind], min_size=1, max_size=6))
    keys = draw(st.lists(st.integers(0, 10**6), min_size=len(values),
                         max_size=len(values)))
    return kind, list(zip(keys, values))


@settings(max_examples=150, deadline=None)
@given(_partitions())
def test_spill_roundtrip_is_byte_identical(partition):
    kind, records = partition
    encoded = encode_block(records)
    decoded = decode_block(encoded)
    assert pickle.dumps(decoded) == pickle.dumps(records)
    assert encode_block(decoded) == encoded
    body = pickle.loads(encoded)
    # only a type's own codec is unbounded on disk: chunk columns of
    # any size spill packed, array columns past the limit do not, and
    # offset chunks have no codec at all
    if kind == "chunks":
        assert "column" in body
    elif kind in ("big_arrays", "offset_chunks"):
        assert "records" in body


def test_chunk_column_above_limit_spills_packed():
    chunks = [(i, Chunk.from_dense(_random(i, 2 * _LIMIT_ITEMS),
                                   mode=ChunkMode.DENSE))
              for i in range(3)]
    assert min(chunk.nbytes for _, chunk in chunks) > VALUE_PACK_BYTE_LIMIT
    assert "column" in pickle.loads(encode_block(chunks))
    arrays = [(i, _random(i, 2 * _LIMIT_ITEMS)) for i in range(3)]
    assert "records" in pickle.loads(encode_block(arrays))
