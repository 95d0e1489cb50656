"""Partitioners: how keys map to partitions.

Spangle relies on hash partitioning (the default for shuffles) and on
explicit, function-defined placement (contraction-index co-location for
the matmul local join).
:class:`NnzBalancedPartitioner` adds the nnz-aware placement the sparse
execution tier uses: chunk keys pack into partitions by their valid-cell
counts instead of by count alone, so one dense block cannot serialize a
stage while the rest of the pool idles.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import EngineError

#: Python hashes ints modulo this Mersenne prime: ``hash(k) == k`` holds
#: only for int keys strictly inside it, so keys at or beyond it take the
#: per-record path
HASH_MODULUS = (1 << 61) - 1


class Partitioner:
    """Maps a key to a partition index in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise EngineError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        self.num_partitions = num_partitions

    def partition(self, key) -> int:
        raise NotImplementedError

    def partition_array(self, keys: "np.ndarray"):
        """Vectorized twin of :meth:`partition` for an int64 key column.

        Must agree element-wise with ``partition(key)`` for every key it
        accepts; returns None when this partitioner (or this key range)
        can only be evaluated per record — the columnar shuffle then
        falls back to the generic path.
        """
        return None

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.num_partitions == other.num_partitions
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_partitions})"


class HashPartitioner(Partitioner):
    """Partition by ``hash(key) % n``, made stable for ints.

    Python's ``hash`` of an int is the int itself (mod a large prime),
    which is exactly Spark's behaviour for integer keys and gives the
    deterministic placement that the SGD chunk-ID equation (Eq. 2 of the
    paper) exploits.
    """

    def partition(self, key) -> int:
        return hash(key) % self.num_partitions

    def partition_array(self, keys):
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        if (int(keys.max()) >= HASH_MODULUS
                or int(keys.min()) <= -HASH_MODULUS):
            # hash(k) != k once the modulus engages
            return None
        pids = keys % self.num_partitions
        minus_one = keys == -1
        if minus_one.any():
            # CPython quirk: hash(-1) == -2
            pids[minus_one] = (-2) % self.num_partitions
        return pids


class ExplicitPartitioner(Partitioner):
    """Partition through a user-supplied function.

    Spangle's matrix multiply partitions both operands by the contraction
    index k: the left operand by column-block ID, the right by row-block
    ID (``matrix.multiply.k_partitioners``); this partitioner lets those
    layouts be expressed directly.
    """

    def __init__(self, num_partitions: int, func, tag=None,
                 array_func=None):
        super().__init__(num_partitions)
        self._func = func
        self._tag = tag
        # optional vectorized twin of func over an int64 key column
        self._array_func = array_func

    def partition(self, key) -> int:
        return self._func(key) % self.num_partitions

    def partition_array(self, keys):
        if self._array_func is None:
            return None
        try:
            out = np.asarray(self._array_func(keys), dtype=np.int64)
        except Exception:  # noqa: BLE001 - fall back per record
            return None
        if out.shape != keys.shape:
            return None
        return out % self.num_partitions

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.num_partitions == other.num_partitions
            and self._tag is not None
            and self._tag == other._tag
        )

    def __hash__(self) -> int:
        return hash(("ExplicitPartitioner", self.num_partitions, self._tag))


class NnzBalancedPartitioner(Partitioner):
    """Place known keys so per-partition nnz is balanced, not key count.

    Built from per-key weights (a chunk's valid-cell count, a
    contraction group's pair count) via :meth:`from_weights`: greedy
    longest-processing-time packing assigns the heaviest key to the
    currently lightest partition, which bounds the max/mean load ratio
    the way chunk-count placement cannot on skewed (power-law) inputs.
    Keys outside the assignment — records created after the stats were
    taken — fall back to hash placement, so the partitioner stays total.

    Equality is by assignment content: two instances packed from the
    same weights compare equal, which keeps the engine's
    same-partitioner fast paths (``partition_by`` no-op, narrow joins)
    intact across plan barriers.
    """

    def __init__(self, num_partitions: int, assignment: dict):
        super().__init__(num_partitions)
        keys = np.fromiter((int(k) for k in assignment), dtype=np.int64,
                           count=len(assignment))
        pids = np.fromiter((int(v) for v in assignment.values()),
                           dtype=np.int64, count=len(assignment))
        if pids.size and (pids.min() < 0
                          or pids.max() >= num_partitions):
            raise EngineError(
                f"assignment targets outside [0, {num_partitions})"
            )
        order = np.argsort(keys)
        self._keys = keys[order]
        self._pids = pids[order]
        if self._keys.size and np.any(np.diff(self._keys) == 0):
            raise EngineError("duplicate keys in nnz assignment")
        self._digest = hash((num_partitions, self._keys.tobytes(),
                             self._pids.tobytes()))

    @classmethod
    def from_weights(cls, weights: dict, num_partitions: int
                     ) -> "NnzBalancedPartitioner":
        """Greedy LPT packing of ``{key: weight}`` into partitions.

        Deterministic: keys sort by (weight desc, key asc) and ties in
        load break toward the lowest partition index.
        """
        heap = [(0.0, pid) for pid in range(num_partitions)]
        assignment = {}
        for key in sorted(weights, key=lambda k: (-weights[k], k)):
            load, pid = heapq.heappop(heap)
            assignment[int(key)] = pid
            heapq.heappush(heap,
                           (load + max(float(weights[key]), 0.0), pid))
        return cls(num_partitions, assignment)

    def partition_loads(self, weights: dict) -> np.ndarray:
        """Per-partition total weight under this assignment (for the
        ``nnz.imbalance`` gauge)."""
        loads = np.zeros(self.num_partitions)
        for key, weight in weights.items():
            loads[self.partition(key)] += float(weight)
        return loads

    def partition(self, key) -> int:
        if self._keys.size and isinstance(key, (int, np.integer)):
            slot = int(np.searchsorted(self._keys, key))
            if slot < self._keys.size and self._keys[slot] == key:
                return int(self._pids[slot])
        return hash(key) % self.num_partitions

    def partition_array(self, keys):
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        if (int(keys.max()) >= HASH_MODULUS
                or int(keys.min()) <= -HASH_MODULUS):
            # the hash fallback diverges from ``key % n`` out there
            return None
        pids = keys % self.num_partitions
        minus_one = keys == -1
        if minus_one.any():
            # CPython quirk: hash(-1) == -2
            pids[minus_one] = (-2) % self.num_partitions
        if self._keys.size:
            slots = np.searchsorted(self._keys, keys)
            slots_clipped = np.minimum(slots, self._keys.size - 1)
            known = self._keys[slots_clipped] == keys
            pids[known] = self._pids[slots_clipped[known]]
        return pids.astype(np.int64, copy=False)

    def __getstate__(self):
        return (self.num_partitions, self._keys, self._pids)

    def __setstate__(self, state):
        self.num_partitions, self._keys, self._pids = state
        self._digest = hash((self.num_partitions, self._keys.tobytes(),
                             self._pids.tobytes()))

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.num_partitions == other.num_partitions
            and self._digest == other._digest
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._pids, other._pids)
        )

    def __hash__(self) -> int:
        return self._digest

    def __repr__(self) -> str:
        return (f"NnzBalancedPartitioner({self.num_partitions}, "
                f"keys={self._keys.size})")
