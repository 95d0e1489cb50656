"""Golden values for the result/shuffle size estimator.

``estimate_size`` dispatches exact builtins by ``type(obj)`` ahead of
its probe chain. Every value it returns is pinned here, and a property
checks it against the plain probe-chain walk (kept below as the
reference) on random nested containers, so the fast path can never
change what ``result_bytes`` / ``shuffle_bytes`` count.
"""

import enum
import sys
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Chunk, ChunkMode
from repro.engine.sizing import estimate_partition_size, estimate_size


def reference_size(obj) -> int:
    """The estimator as a single isinstance chain, no type dispatch."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            return 8 * obj.size + sum(reference_size(o) for o in obj.flat)
        return int(obj.nbytes)
    if type(obj) is Chunk:
        return obj.resident_nbytes
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None and isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    for primitive, size in {int: 8, float: 8, bool: 1,
                            complex: 16}.items():
        if isinstance(obj, primitive):
            return size
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.dtype.itemsize
    if isinstance(obj, (str, bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return 8 + sum(reference_size(item) for item in obj)
    if isinstance(obj, dict):
        return 16 + sum(reference_size(k) + reference_size(v)
                        for k, v in obj.items())
    if isinstance(obj, (set, frozenset)):
        return 16 + sum(reference_size(item) for item in obj)
    if obj is None:
        return 0
    return sys.getsizeof(obj)


Point = namedtuple("Point", "x y")
Sized = namedtuple("Sized", "nbytes payload")


class Color(enum.IntEnum):
    RED = 1


def _chunk(mode=ChunkMode.SPARSE):
    rng = np.random.default_rng(3)
    valid = rng.random(256) < 0.2
    return Chunk.from_dense(rng.standard_normal(256), valid, mode=mode)


GOLDEN = [
    (7, 8),
    (-(2 ** 70), 8),
    (True, 8),             # int is tested first: bool sizes as an int
    (1.5, 8),
    (2 + 3j, 16),
    (None, 0),
    ("abc", 3),
    ("é", 1),              # characters, not encoded bytes
    (b"abcd", 4),
    (bytearray(5), 5),
    ((1, 2.0, (3, None)), 8 + 8 + 8 + (8 + 8 + 0)),
    ([1, [2, 3]], 8 + 8 + (8 + 8 + 8)),
    ({"a": 1, 2: (3.0,)}, 16 + (1 + 8) + (8 + (8 + 8))),
    ({1, 2}, 16 + 8 + 8),
    (frozenset({"xy"}), 16 + 2),
    ((), 8),
    ({}, 16),
    (np.zeros(10), 80),
    (np.zeros((2, 3), dtype=np.int32), 24),
    (np.array([1, "ab", None], dtype=object), 3 * 8 + 8 + 2 + 0),
    (np.float32(1.0), 4),
    (np.int16(3), 2),
    (np.bool_(True), 1),
    (np.complex128(1j), 16),
    (Point(1, 2.0), 8 + 8 + 8),       # tuple subclass: slow path
    (Sized(5, "x" * 100), 5),         # ... which reads nbytes first
    (Color.RED, 8),
]


class TestGolden:
    @pytest.mark.parametrize("obj,size", GOLDEN,
                             ids=[repr(o)[:30] for o, _ in GOLDEN])
    def test_value(self, obj, size):
        assert estimate_size(obj) == size
        assert reference_size(obj) == size

    @pytest.mark.parametrize("mode", list(ChunkMode))
    def test_chunk_uses_registered_probe(self, mode):
        chunk = _chunk(mode)
        exact = chunk.resident_nbytes
        assert estimate_size(chunk) == exact
        assert estimate_size((4, chunk)) == 8 + 8 + exact

    def test_unknown_object_falls_back_to_getsizeof(self):
        obj = object()
        assert estimate_size(obj) == sys.getsizeof(obj)

    def test_partition_of_records(self):
        records = [(i, float(i)) for i in range(5)]
        assert estimate_partition_size(records) == 5 * 24
        assert estimate_partition_size(np.zeros(4)) == 32


def _object_array(items):
    out = np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        out[i] = item
    return out


_scalars = st.one_of(
    st.integers(), st.booleans(), st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False), st.none(), st.text(max_size=5),
    st.binary(max_size=5),
    st.integers(-100, 100).map(np.int32),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(0, 6).map(np.arange),
    st.builds(Point, st.integers(), st.floats(allow_nan=False)),
)
_hashable = st.one_of(st.integers(), st.text(max_size=3), st.none())
_nested = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_hashable, children, max_size=4),
        st.frozensets(_hashable, max_size=4),
        st.sets(_hashable, max_size=4),
        st.lists(children, max_size=3).map(_object_array),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_nested)
def test_fast_path_equals_reference_walk(obj):
    assert estimate_size(obj) == reference_size(obj)
