"""Unit tests for the flat Bitmask."""

import pickle

import numpy as np
import pytest

from repro.bitmask import Bitmask
from repro.errors import ArrayError


class TestConstruction:
    def test_zeros(self):
        mask = Bitmask.zeros(100)
        assert len(mask) == 100
        assert mask.count() == 0
        assert not mask.any()

    def test_ones(self):
        mask = Bitmask.ones(100)
        assert mask.count() == 100
        assert mask.all()

    def test_ones_tail_is_masked(self):
        # 70 bits -> 2 words; the last word must not carry phantom bits
        mask = Bitmask.ones(70)
        assert mask.count() == 70

    def test_from_bools_roundtrip(self):
        flags = np.array([True, False, True, True, False])
        mask = Bitmask.from_bools(flags)
        assert np.array_equal(mask.to_bools(), flags)

    def test_from_indices(self):
        mask = Bitmask.from_indices(10, [0, 3, 9])
        assert list(mask.indices()) == [0, 3, 9]

    def test_empty(self):
        mask = Bitmask.zeros(0)
        assert mask.count() == 0
        assert mask.to_bools().size == 0
        assert mask.density() == 0.0

    def test_negative_length_rejected(self):
        with pytest.raises(ArrayError):
            Bitmask(-1)

    def test_word_count_validation(self):
        with pytest.raises(ArrayError):
            Bitmask(128, np.zeros(1, dtype=np.uint64))

    def test_copy_is_independent(self):
        mask = Bitmask.from_indices(10, [1])
        dup = mask.copy()
        dup.set(2)
        assert not mask.get(2)


class TestBitAccess:
    def test_set_get_clear(self):
        mask = Bitmask.zeros(130)
        mask.set(0)
        mask.set(64)
        mask.set(129)
        assert mask.get(0) and mask.get(64) and mask.get(129)
        assert not mask.get(1)
        mask.clear(64)
        assert not mask.get(64)
        assert mask.count() == 2

    def test_out_of_range(self):
        mask = Bitmask.zeros(8)
        with pytest.raises(ArrayError):
            mask.get(8)
        with pytest.raises(ArrayError):
            mask.set(-1)

    def test_set_range(self):
        mask = Bitmask.zeros(100)
        mask.set_range(10, 20)
        assert mask.count() == 10
        assert mask.get(10) and mask.get(19) and not mask.get(20)
        mask.set_range(15, 25, value=False)
        assert mask.count() == 5

    def test_set_range_clamps(self):
        mask = Bitmask.zeros(10)
        mask.set_range(-5, 100)
        assert mask.count() == 10


class TestCounting:
    @pytest.mark.parametrize("strategy",
                             ["naive", "builtin", "vectorized"])
    def test_count_strategies_agree(self, strategy):
        rng = np.random.default_rng(0)
        mask = Bitmask.from_bools(rng.random(1000) < 0.3)
        assert mask.count(strategy) == mask.count("vectorized")

    def test_count_unknown_strategy(self):
        with pytest.raises(ArrayError):
            Bitmask.zeros(8).count("avx512")

    @pytest.mark.parametrize("strategy",
                             ["naive", "builtin", "vectorized", "milestone"])
    def test_rank_strategies_agree(self, strategy):
        rng = np.random.default_rng(1)
        flags = rng.random(5000) < 0.2
        mask = Bitmask.from_bools(flags)
        for pos in (0, 1, 63, 64, 65, 1000, 4999, 5000):
            assert mask.rank(pos, strategy) == int(flags[:pos].sum())

    def test_rank_beyond_length_equals_count(self):
        mask = Bitmask.from_indices(100, [5, 50, 99])
        assert mask.rank(10_000) == 3

    def test_rank_select_inverse(self):
        mask = Bitmask.from_indices(200, [3, 64, 65, 190])
        for k in range(4):
            pos = mask.select(k)
            assert mask.rank(pos) == k
            assert mask.get(pos)

    def test_select_out_of_range(self):
        mask = Bitmask.from_indices(10, [1])
        with pytest.raises(ArrayError):
            mask.select(1)

    def test_density(self):
        mask = Bitmask.from_indices(10, [0, 1])
        assert mask.density() == pytest.approx(0.2)

    def test_rank_after_mutation_invalidates_milestones(self):
        mask = Bitmask.zeros(10_000)
        assert mask.rank(10_000, "milestone") == 0
        mask.set(5)
        assert mask.rank(10_000, "milestone") == 1


class TestAlgebra:
    def test_and(self):
        a = Bitmask.from_indices(10, [1, 2, 3])
        b = Bitmask.from_indices(10, [2, 3, 4])
        assert list((a & b).indices()) == [2, 3]

    def test_or(self):
        a = Bitmask.from_indices(10, [1])
        b = Bitmask.from_indices(10, [4])
        assert list((a | b).indices()) == [1, 4]

    def test_xor(self):
        a = Bitmask.from_indices(10, [1, 2])
        b = Bitmask.from_indices(10, [2, 3])
        assert list((a ^ b).indices()) == [1, 3]

    def test_invert_respects_length(self):
        a = Bitmask.from_indices(70, [0])
        inverted = ~a
        assert inverted.count() == 69
        assert not inverted.get(0)

    def test_and_not(self):
        a = Bitmask.from_indices(10, [1, 2, 3])
        b = Bitmask.from_indices(10, [2])
        assert list(a.and_not(b).indices()) == [1, 3]

    def test_length_mismatch(self):
        with pytest.raises(ArrayError):
            Bitmask.zeros(10) & Bitmask.zeros(11)

    def test_equality(self):
        assert Bitmask.from_indices(10, [1]) == Bitmask.from_indices(10, [1])
        assert Bitmask.from_indices(10, [1]) != Bitmask.from_indices(10, [2])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Bitmask.zeros(1))


class TestSizing:
    def test_nbytes_is_word_array(self):
        assert Bitmask.zeros(64).nbytes == 8
        assert Bitmask.zeros(65).nbytes == 16

    def test_one_bit_per_cell(self):
        # the paper's pitch: validity costs 1 bit/cell vs 8 bytes/cell
        mask = Bitmask.zeros(64_000)
        assert mask.nbytes == 8_000


class TestPickle:
    def test_unpickled_masks_pickle_as_fresh_ones(self):
        """Unpickled words and milestones re-intern numpy's dtype
        singletons: pickle memoizes dtypes by identity, so a list of
        unpickled masks must pickle as the list of the originals."""
        from repro.bitmask import HierarchicalBitmask

        rng = np.random.default_rng(3)
        flat = Bitmask.from_bools(rng.random(10_000) < 0.3)
        flat.rank(9_000)   # builds the milestone cache, which pickles
        hier = HierarchicalBitmask.from_bools(rng.random(10_000) < 0.001)
        hier.rank(9_000)
        fresh = [flat, hier]
        loaded = [pickle.loads(pickle.dumps(mask)) for mask in fresh]
        assert pickle.dumps(loaded) == pickle.dumps(fresh)
