"""Partitioners: how keys map to partitions.

Spangle relies on hash partitioning (the default for shuffles) and on
computed block placement (contraction-index co-location for the matmul
local join, output-chunk placement for group-by aggregation). Every
partitioner is a value: it pickles by reference to its class, and two
instances compare equal only when they place every key alike, which
is what lets ``partition_by`` skip a shuffle that would move nothing.
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

    def _fields(self) -> tuple:
        """What the placement depends on: equal fields, equal placement."""
        return (self.num_partitions,)

    def __eq__(self, other) -> bool:
        return (type(self) is type(other)
                and self._fields() == other._fields())

    def __hash__(self) -> int:
        return hash((type(self).__name__, *self._fields()))

    def __repr__(self) -> str:
        fields = ", ".join(map(repr, self._fields()))
        return f"{type(self).__name__}({fields})"


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
        if keys.size and (int(keys.max()) >= HASH_MODULUS
                          or int(keys.min()) <= -HASH_MODULUS):
            return None   # hash(k) != k once the modulus engages
        pids = keys % self.num_partitions
        pids[keys == -1] = (-2) % self.num_partitions   # hash(-1) == -2
        return pids


class BlockPartitioner(Partitioner):
    """Place key ``k`` at ``k // divisor % modulus % num_partitions``.

    The engine's computed placements: matmul puts a left block by its
    column-block index (``divisor`` = grid rows) and a right block by
    its row-block index (``modulus`` = grid rows), so both operands'
    contraction index *k* meet (``matrix.multiply.k_partitioners``);
    ``aggregate_cells`` puts an output cell key by its chunk ID
    (``divisor`` = cells per chunk). A value, not a function: it
    vectorizes with the same integer arithmetic and two instances
    compare equal exactly when their fields do.
    """

    def __init__(self, num_partitions: int, divisor: int = 1,
                 modulus=None):
        super().__init__(num_partitions)
        if divisor <= 0 or (modulus is not None and modulus <= 0):
            raise EngineError(f"divisor and modulus must be positive, "
                              f"got {divisor} and {modulus}")
        self.divisor = int(divisor)
        self.modulus = None if modulus is None else int(modulus)

    def partition(self, key) -> int:
        return int(self.partition_array(key))

    def partition_array(self, keys):
        blocks = keys // self.divisor
        if self.modulus is not None:
            blocks = blocks % self.modulus
        return blocks % self.num_partitions

    def _fields(self) -> tuple:
        return self.num_partitions, self.divisor, self.modulus


class NnzBalancedPartitioner(HashPartitioner):
    """Place known keys so per-partition nnz is balanced, not key count.

    Built from per-key weights (a chunk's valid-cell count, a
    contraction group's pair count) via :meth:`from_weights`: greedy
    longest-processing-time packing assigns the heaviest key to the
    currently lightest partition, which bounds the max/mean load ratio
    the way chunk-count placement cannot on skewed (power-law) inputs.
    Keys outside the assignment — records created after the stats were
    taken — fall back to :class:`HashPartitioner` placement, so the
    partitioner stays total.

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
        return super().partition(key)

    def partition_array(self, keys):
        pids = super().partition_array(keys)
        if pids is not None and self._keys.size:
            slots = np.searchsorted(self._keys, keys)
            slots_clipped = np.minimum(slots, self._keys.size - 1)
            known = self._keys[slots_clipped] == keys
            pids[known] = self._pids[slots_clipped[known]]
        return pids

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
