"""Contract tests for :class:`NnzBalancedPartitioner`.

The nnz-balanced partitioner backs the PageRank graph loader's
placement, so three contracts matter: the vectorized
``partition_array`` must agree with scalar ``partition`` on any key
column (the columnar shuffle depends on it), instances must survive
pickling to process workers, and equality/hash must make two
instances packed from the same weights interchangeable so the
engine's same-partitioner fast paths keep firing.
"""

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ClusterContext, NnzBalancedPartitioner
from repro.engine.partitioner import HASH_MODULUS
from repro.errors import EngineError


def lpt(weights, parts):
    return NnzBalancedPartitioner.from_weights(weights, parts)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_assignment_targets_validated():
    with pytest.raises(EngineError):
        NnzBalancedPartitioner(2, {0: 0, 1: 2})
    with pytest.raises(EngineError):
        NnzBalancedPartitioner(2, {0: -1})


def test_from_weights_is_deterministic_and_total():
    weights = {cid: float((cid * 7919) % 97 + 1) for cid in range(40)}
    a = lpt(weights, 4)
    b = lpt(dict(reversed(list(weights.items()))), 4)
    assert a == b
    assert hash(a) == hash(b)
    assert {a.partition(cid) for cid in weights} <= set(range(4))


def test_lpt_beats_hash_on_power_law_weights():
    rng = np.random.default_rng(7)
    weights = {cid: float(w) for cid, w in
               enumerate((rng.pareto(1.1, size=64) + 1) * 100)}
    parts = 8
    balanced = lpt(weights, parts)
    loads = balanced.partition_loads(weights)
    hash_loads = [0.0] * parts
    for cid, w in weights.items():
        hash_loads[hash(cid) % parts] += w
    mean = sum(weights.values()) / parts
    assert max(loads) / mean <= max(hash_loads) / mean
    # LPT guarantees max load <= mean + heaviest single item
    assert max(loads) <= mean + max(weights.values()) + 1e-9


# ----------------------------------------------------------------------
# vectorized vs scalar agreement
# ----------------------------------------------------------------------

interesting_keys = st.one_of(
    st.integers(-3, 70),
    st.just(-1),
    st.integers(HASH_MODULUS - 2, HASH_MODULUS + 2),
)


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(interesting_keys, min_size=0, max_size=50),
       parts=st.integers(1, 6))
def test_partition_array_matches_scalar(keys, parts):
    weights = {cid: float(cid % 5 + 1) for cid in range(0, 64, 3)}
    partitioner = lpt(weights, parts)
    column = np.array(keys, dtype=np.int64)
    vectorized = partitioner.partition_array(column)
    scalar = [partitioner.partition(k) for k in keys]
    if vectorized is None:
        # only permissible when the hash fallback range is exceeded
        assert any(abs(k) >= HASH_MODULUS for k in keys)
    else:
        assert vectorized.tolist() == scalar


def test_partition_array_overrides_only_known_keys():
    partitioner = NnzBalancedPartitioner(4, {10: 3, 20: 1})
    keys = np.array([9, 10, 11, 20, 21, -1], dtype=np.int64)
    got = partitioner.partition_array(keys).tolist()
    assert got[1] == 3 and got[3] == 1
    assert got[0] == hash(9) % 4
    assert got[2] == hash(11) % 4
    assert got[5] == hash(-1) % 4
    assert got == [partitioner.partition(int(k)) for k in keys]


def test_non_int_keys_fall_back_to_hash():
    partitioner = NnzBalancedPartitioner(3, {1: 2})
    assert partitioner.partition("chunk-1") == hash("chunk-1") % 3
    assert partitioner.partition((1, 2)) == hash((1, 2)) % 3


# ----------------------------------------------------------------------
# equality / hashing and the engine fast paths
# ----------------------------------------------------------------------

def test_eq_hash_by_content_not_identity():
    weights = {cid: float(cid + 1) for cid in range(12)}
    a, b = lpt(weights, 3), lpt(weights, 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != lpt(weights, 4)
    assert a != lpt({**weights, 12: 99.0}, 3)


def test_partition_by_same_partitioner_is_a_noop():
    ctx = ClusterContext(num_executors=2)
    weights = {cid: float(cid % 3 + 1) for cid in range(9)}
    data = [(cid, cid * 10) for cid in range(9)]
    placed = ctx.parallelize(data, 3).partition_by(lpt(weights, 3))
    again = placed.partition_by(lpt(weights, 3))
    assert again is placed  # equal partitioner → no shuffle at all
    moved = placed.partition_by(lpt({**weights, 0: 50.0}, 3))
    assert moved is not placed


def test_partition_by_places_per_assignment():
    ctx = ClusterContext(num_executors=2)
    partitioner = NnzBalancedPartitioner(3, {0: 2, 1: 2, 2: 0, 3: 1})
    data = [(cid, chr(65 + cid)) for cid in range(4)]
    placed = ctx.parallelize(data, 2).partition_by(partitioner)
    assert Counter(placed.collect()) == Counter(data)
    for pid, records in enumerate(ctx.run_job(placed, list)):
        for key, _value in records:
            assert partitioner.partition(key) == pid


# ----------------------------------------------------------------------
# pickling / process backend
# ----------------------------------------------------------------------

def test_pickle_round_trip_preserves_behaviour():
    weights = {cid: float((cid * 13) % 11 + 1) for cid in range(30)}
    original = lpt(weights, 5)
    clone = pickle.loads(pickle.dumps(original))
    assert clone == original and hash(clone) == hash(original)
    keys = np.arange(-1, 40, dtype=np.int64)
    np.testing.assert_array_equal(clone.partition_array(keys),
                                  original.partition_array(keys))


def test_survives_process_backend_shuffle():
    weights = {cid: float(cid % 4 + 1) for cid in range(16)}
    partitioner = lpt(weights, 2)
    data = [(cid, cid) for cid in range(16)]
    with ClusterContext(num_executors=2, backend="process") as ctx:
        placed = ctx.parallelize(data, 2).partition_by(partitioner)
        for pid, records in enumerate(ctx.run_job(placed, list)):
            for key, _value in records:
                assert partitioner.partition(key) == pid
