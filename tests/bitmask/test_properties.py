"""Property-based tests (hypothesis) for bitmask invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmask import Bitmask, HierarchicalBitmask, SequentialCursor
from repro.bitmask.popcount import (
    per_word_popcounts,
    popcount_words_builtin,
    popcount_words_naive,
    popcount_words_vectorized,
)

bool_arrays = st.lists(st.booleans(), min_size=0, max_size=600) \
                .map(lambda bits: np.array(bits, dtype=bool))

word_arrays = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=40
).map(lambda ws: np.array(ws, dtype=np.uint64))


@given(word_arrays)
def test_popcount_implementations_agree(words):
    expected = popcount_words_vectorized(words)
    assert popcount_words_naive(words) == expected
    assert popcount_words_builtin(words) == expected


@given(bool_arrays)
def test_bools_roundtrip(flags):
    assert np.array_equal(Bitmask.from_bools(flags).to_bools(), flags)


@given(bool_arrays)
def test_count_equals_sum(flags):
    assert Bitmask.from_bools(flags).count() == int(flags.sum())


@given(bool_arrays, st.integers(min_value=0, max_value=700))
def test_rank_equals_prefix_sum(flags, pos):
    mask = Bitmask.from_bools(flags)
    clamped = min(pos, flags.size)
    expected = int(flags[:clamped].sum())
    for strategy in ("naive", "builtin", "vectorized", "milestone"):
        assert mask.rank(pos, strategy) == expected


@given(bool_arrays)
def test_rank_select_roundtrip(flags):
    mask = Bitmask.from_bools(flags)
    for k in range(mask.count()):
        pos = mask.select(k)
        assert mask.get(pos)
        assert mask.rank(pos) == k


@given(bool_arrays, bool_arrays)
def test_de_morgan(a_flags, b_flags):
    n = min(a_flags.size, b_flags.size)
    a = Bitmask.from_bools(a_flags[:n])
    b = Bitmask.from_bools(b_flags[:n])
    assert ~(a & b) == (~a | ~b)
    assert ~(a | b) == (~a & ~b)


@given(bool_arrays)
def test_invert_involution(flags):
    mask = Bitmask.from_bools(flags)
    assert ~~mask == mask


@given(bool_arrays, bool_arrays)
def test_and_or_counts(a_flags, b_flags):
    n = min(a_flags.size, b_flags.size)
    a = Bitmask.from_bools(a_flags[:n])
    b = Bitmask.from_bools(b_flags[:n])
    # inclusion-exclusion
    assert (a | b).count() == a.count() + b.count() - (a & b).count()


@settings(max_examples=50)
@given(bool_arrays)
def test_hierarchical_roundtrip_and_rank(flags):
    flat = Bitmask.from_bools(flags)
    hier = HierarchicalBitmask.from_bitmask(flat)
    assert hier.to_bitmask() == flat
    assert hier.count() == flat.count()
    for pos in range(0, flags.size + 1, 17):
        assert hier.rank(pos) == flat.rank(pos)


@settings(max_examples=50)
@given(bool_arrays, st.lists(st.integers(min_value=0, max_value=700),
                             min_size=1, max_size=10))
def test_cursor_matches_rank_on_sorted_positions(flags, positions):
    mask = Bitmask.from_bools(flags)
    cursor = SequentialCursor(mask)
    for pos in sorted(positions):
        assert cursor.rank_at(pos) == mask.rank(pos, "vectorized")


@settings(max_examples=50)
@given(bool_arrays)
def test_cursor_iter_valid_matches_indices(flags):
    mask = Bitmask.from_bools(flags)
    pairs = list(SequentialCursor(mask).iter_valid())
    assert [p for p, _r in pairs] == list(mask.indices())
    assert [r for _p, r in pairs] == list(range(mask.count()))


@pytest.mark.parametrize("fill", ["random", "zeros", "ones"])
@pytest.mark.parametrize("num_bits", [0, 1, 63, 64, 65, 16_384, 16_385])
def test_conversions_agree_with_numpy(num_bits, fill):
    num_words = -(-num_bits // 64)
    rng = np.random.default_rng(num_bits)
    words = {
        "random": np.frombuffer(rng.bytes(8 * num_words), dtype=np.uint64),
        "zeros": np.zeros(num_words, dtype=np.uint64),
        "ones": np.full(num_words, 2**64 - 1, dtype=np.uint64),
    }[fill].copy()
    mask = Bitmask(num_bits, words.copy())
    # numpy reference: shift every bit of every word down to position 0
    shifts = np.arange(64, dtype=np.uint64)
    flags = ((words[:, None] >> shifts) & np.uint64(1)).astype(bool) \
        .ravel()[:num_bits]

    bools = mask.to_bools()
    assert bools.dtype == bool and np.array_equal(bools, flags)
    assert bools.flags.writeable
    assert not np.shares_memory(bools, mask.words)
    bools[:] = ~bools
    assert np.array_equal(mask.to_bools(), flags)

    indices = mask.indices()
    assert indices.dtype == np.int64
    assert np.array_equal(indices, np.flatnonzero(flags))
    assert Bitmask.from_bools(flags) == mask
    assert Bitmask.from_indices(num_bits, indices) == mask
    assert mask.count() == int(flags.sum())
    assert per_word_popcounts(mask.words).tolist() == [
        int(flags[i:i + 64].sum()) for i in range(0, num_bits, 64)]
