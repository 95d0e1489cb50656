"""The stacked-word bit operations against plain numpy on bools."""

import numpy as np
import pytest

from repro.bitmask import Bitmask
from repro.bitmask.stacked import (
    bits_at,
    deposit,
    pack_positions,
    ranks,
    segments_any,
    set_positions,
    stack_words,
)

# densities from an empty mask to a full one
DENSITIES = [0.0, 0.002, 0.04, 0.5, 1.0]
# lengths with and without a partial last word, and an empty mask
LENGTHS = [0, 1, 63, 64, 65, 300, 16384]


def masks_and_bools(density, seed):
    rng = np.random.default_rng(seed)
    bools = [rng.random(n) < density for n in LENGTHS]
    return [Bitmask.from_bools(b) for b in bools], bools


def stacked_bools(bools):
    """The stacked layout as bools: each mask padded to whole words."""
    return np.concatenate([np.pad(b, (0, -b.size % 64)) for b in bools])


@pytest.mark.parametrize("density", DENSITIES)
def test_stacked_operations_match_numpy(density):
    masks, bools = masks_and_bools(density, seed=int(density * 1000))
    words, bounds = stack_words(masks)
    flat = stacked_bools(bools)
    assert bounds.tolist() == np.cumsum(
        [0] + [mask.words.size for mask in masks]).tolist()
    positions = np.flatnonzero(flat)
    assert np.array_equal(set_positions(words), positions)
    assert np.array_equal(pack_positions(positions, words.size), words)
    prefix = np.concatenate([[0], np.cumsum(flat)])
    probe = np.arange(flat.size)
    assert np.array_equal(ranks(words, probe), prefix[probe])
    assert np.array_equal(bits_at(words, probe), flat)
    assert segments_any(words, bounds).tolist() == [b.any() for b in bools]
    keep = np.random.default_rng(7).random(positions.size) < 0.3
    assert np.array_equal(deposit(words, keep),
                          pack_positions(positions[keep], words.size))


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 16384])
def test_bitmask_indices_match_flatnonzero(density, length):
    rng = np.random.default_rng(length)
    mask = Bitmask.from_bools(rng.random(length) < density)
    got = mask.indices()
    want = np.flatnonzero(mask.to_bools())
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # the tail past the last bit stays clear after a complement too
    assert np.array_equal((~mask).indices(),
                          np.flatnonzero((~mask).to_bools()))

