"""Packed shuffle blocks: the columnar shuffle data plane.

Spangle moves chunk-granularity data — flat payload + bitmask buffers —
yet the generic shuffle buckets one Python tuple at a time. This module
provides the packed alternative: a :class:`RecordBatch` ships a whole
bucket as ``(key_array, value_payload_buffer, offsets, bitmask_words)``
with exact ``nbytes`` accounting, and the combine kernels fold values on
sorted key runs in one numpy pass.

The shuffle packs a partition of tuples itself, or a map function hands
it over as one ``RecordBatch`` (``aggregate_by``'s keys and states)
that is folded, bucketed and merged with no tuple built; a
kernel-merged reduce partition stays one, iterating to its records.

The contract is strict: everything here must be **byte-identical** to
the generic per-record path (the dict-based combine/merge in
``engine/rdd.py``) — same record order, same Python value types, same
float bits. Packing therefore refuses anything it cannot reproduce
exactly and returns ``None``, which callers treat as "fall back to the
tuple path":

- keys pack only when every key is a plain ``int`` (``bool`` and numpy
  scalars would unpack as a different type) small enough that
  ``hash(k) == k`` (the ``2**61 - 1`` modulus never engages);
- values pack only for uniform plain floats, plain ints, 2-tuples of
  scalars, same-dtype numpy arrays, or a column whose first value's
  type offers its own codec (:func:`pack_own_column`; ``Chunk`` does,
  so the engine layer stays core-free);
- array-backed codecs additionally refuse once the mean payload per
  record reaches :data:`VALUE_PACK_BYTE_LIMIT`: packing copies the
  payload (concatenate, bucket gather, unpack), which pays off only
  while per-record framing overhead dominates — large buffers travel
  faster as plain Python references;
- the float-sum kernel uses ``np.add.at`` (unbuffered, applied in index
  order) rather than ``reduceat`` because numpy's pairwise summation
  re-associates float adds; min/max refuse NaN (numpy propagates it,
  Python's ``min`` does not); int sums refuse magnitudes that could
  overflow int64 where Python would promote to bignum.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ArrayValues",
    "PairValues",
    "RecordBatch",
    "ScalarValues",
    "VALUE_PACK_BYTE_LIMIT",
    "canonical_dtype",
    "canonical_values",
    "combine_runs",
    "group_indices_by_partition",
    "pack_int_keys",
    "pack_own_column",
    "pack_values",
]


# ----------------------------------------------------------------------
# key column
# ----------------------------------------------------------------------

def canonical_dtype(array: np.ndarray) -> np.ndarray:
    """``array`` viewed (zero-copy) through numpy's canonical dtype.

    An unpickled array's dtype equals the singleton but is not it, and
    pickle memoizes by identity: re-interned, decoded arrays pickle
    byte-identically to fresh ones."""
    if array.dtype.fields is None:
        canonical = np.dtype(array.dtype.str)
        if canonical is not array.dtype:
            return array.view(canonical)
    return array


def canonical_values(value, memo=None):
    """``value`` with the ndarrays in its tuples and lists re-interned
    (:func:`canonical_dtype`), for data that arrives by ``pickle.loads``
    outside the packed codecs. Lists are rewritten in place; ``memo``
    keeps what the pickle shared shared. Other objects are not walked.
    """
    if memo is None:
        memo = {}
    if id(value) in memo:
        return memo[id(value)]
    out = value
    if type(value) is np.ndarray:
        out = canonical_dtype(value)
    elif type(value) is tuple:
        items = tuple(canonical_values(item, memo) for item in value)
        if any(a is not b for a, b in zip(items, value)):
            out = items
    elif type(value) is list:
        value[:] = [canonical_values(item, memo) for item in value]
    memo[id(value)] = out
    return out


def pack_int_keys(records):
    """The int64 key column of ``records``, or None when keys don't pack.

    Only plain ``int`` keys qualify: ``bool`` is a subclass but would
    unpack as ``1``/``0``, and numpy scalars would unpack as plain ints
    — either breaks byte-identity with the generic path.
    """
    if not records:
        return None
    if not all(type(record[0]) is int for record in records):
        return None
    try:
        return np.fromiter((record[0] for record in records),
                           dtype=np.int64, count=len(records))
    except OverflowError:
        return None


# ----------------------------------------------------------------------
# packed value columns
# ----------------------------------------------------------------------

class ScalarValues:
    """A column of uniform plain floats or plain ints."""

    __slots__ = ("data", "pykind")

    def __init__(self, data: np.ndarray, pykind: str):
        self.data = data
        self.pykind = pykind    # "float" | "int"

    def __len__(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def unpack(self) -> list:
        # float64/int64 tolist() reproduces the original Python scalars
        # bit for bit
        return self.data.tolist()

    def gather(self, idx: np.ndarray) -> "ScalarValues":
        return ScalarValues(self.data[idx], self.pykind)


class PairValues:
    """A column of uniform 2-tuples of scalars, e.g. avg's
    ``(sum, count)`` states."""

    __slots__ = ("first", "second")

    def __init__(self, first: ScalarValues, second: ScalarValues):
        self.first = first
        self.second = second

    def __len__(self) -> int:
        return len(self.first)

    @property
    def nbytes(self) -> int:
        return self.first.nbytes + self.second.nbytes

    def unpack(self) -> list:
        return list(zip(self.first.unpack(), self.second.unpack()))

    def gather(self, idx: np.ndarray) -> "PairValues":
        return PairValues(self.first.gather(idx), self.second.gather(idx))


class ArrayValues:
    """A column of same-dtype numpy arrays, stored as one flat payload
    buffer plus per-record lengths/shapes (matmul partial blocks,
    gradient vectors, ...)."""

    __slots__ = ("data", "lengths", "shapes", "offsets")

    def __init__(self, data: np.ndarray, lengths: np.ndarray,
                 shapes: np.ndarray):
        self.data = data            # 1-D concatenation of raveled arrays
        self.lengths = lengths      # int64, one entry per record
        self.shapes = shapes        # int64 (n_records, ndim)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        self.offsets = offsets

    def __getstate__(self):
        return self.data, self.lengths, self.shapes, self.offsets

    def __setstate__(self, state):
        data, self.lengths, self.shapes, self.offsets = state
        self.data = canonical_dtype(data)

    def __len__(self) -> int:
        return self.lengths.size

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes + self.lengths.nbytes
                   + self.shapes.nbytes)

    def unpack(self) -> list:
        out = []
        data, offsets, shapes = self.data, self.offsets, self.shapes
        for i in range(self.lengths.size):
            arr = data[offsets[i]:offsets[i + 1]].copy()
            out.append(arr.reshape(tuple(shapes[i])))
        return out

    def gather(self, idx: np.ndarray) -> "ArrayValues":
        lengths = self.lengths[idx]
        total = int(lengths.sum())
        new_offsets = np.zeros(lengths.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=new_offsets[1:])
        flat = (np.repeat(self.offsets[idx] - new_offsets, lengths)
                + np.arange(total, dtype=np.int64))
        return ArrayValues(self.data[flat], lengths, self.shapes[idx])


def _probe_scalars(values):
    kind = type(values[0])
    if kind is float:
        if not all(type(v) is float for v in values):
            return None
        data = np.fromiter(values, dtype=np.float64, count=len(values))
        return ScalarValues(data, "float")
    if kind is int:
        if not all(type(v) is int for v in values):
            return None
        data = np.fromiter(values, dtype=np.int64, count=len(values))
        return ScalarValues(data, "int")
    return None


_SCALAR_DTYPES = {float: np.float64, int: np.int64}
_SCALAR_KINDS = {float: "float", int: "int"}


def _probe_pairs(values):
    first = values[0]
    if type(first) is not tuple or len(first) != 2:
        return None
    kind_a, kind_b = type(first[0]), type(first[1])
    if kind_a not in _SCALAR_DTYPES or kind_b not in _SCALAR_DTYPES:
        return None
    if not all(type(v) is tuple and len(v) == 2
               and type(v[0]) is kind_a and type(v[1]) is kind_b
               for v in values):
        return None
    col_a = np.fromiter((v[0] for v in values),
                        dtype=_SCALAR_DTYPES[kind_a], count=len(values))
    col_b = np.fromiter((v[1] for v in values),
                        dtype=_SCALAR_DTYPES[kind_b], count=len(values))
    return PairValues(ScalarValues(col_a, _SCALAR_KINDS[kind_a]),
                      ScalarValues(col_b, _SCALAR_KINDS[kind_b]))


#: mean payload bytes per record at which array-backed codecs stop
#: packing. Packing copies the payload three times (concatenate, bucket
#: gather, unpack); that only beats the generic path while per-record
#: framing overhead dominates. Past this point the buffers themselves
#: dominate and shipping them as Python references is free.
VALUE_PACK_BYTE_LIMIT = 4096


def _probe_arrays(values):
    first = values[0]
    if type(first) is not np.ndarray:
        return None
    dtype, ndim = first.dtype, first.ndim
    if dtype.hasobject or ndim == 0:
        return None
    for v in values:
        if (type(v) is not np.ndarray or v.dtype != dtype
                or v.ndim != ndim):
            return None
        if ndim > 1 and not v.flags.c_contiguous:
            # a raveled copy would unpickle C-ordered; the original may
            # not — refuse rather than risk a byte mismatch
            return None
    total_bytes = dtype.itemsize * sum(v.size for v in values)
    if total_bytes >= VALUE_PACK_BYTE_LIMIT * len(values):
        return None
    data = np.concatenate([v.ravel() for v in values]) if values else None
    lengths = np.fromiter((v.size for v in values), dtype=np.int64,
                          count=len(values))
    shapes = np.array([v.shape for v in values], dtype=np.int64)
    return ArrayValues(data, lengths, shapes)


#: built-in probes tried in order by :func:`pack_values`; each
#: self-selects on the first value's type, so ordering does not affect
#: which one wins
_VALUE_CODECS = (_probe_scalars, _probe_pairs, _probe_arrays)


def _try(probe, *args):
    try:
        return probe(*args)
    except (TypeError, ValueError, OverflowError):
        return None


def pack_own_column(values, byte_limit):
    """``values`` packed by the codec its first value's type offers, or
    None.

    A value class offers ``pack_column(values, byte_limit)`` returning an
    object with the ``PackedValues`` interface — ``__len__``, ``nbytes``,
    ``unpack()`` (byte-identical Python values, in order) and
    ``gather(idx)`` — or None to decline. ``byte_limit`` is the
    mean-bytes-per-record refusal threshold: the shuffle passes
    :data:`VALUE_PACK_BYTE_LIMIT`, spill passes None.
    """
    pack_column = getattr(type(values[0]), "pack_column", None)
    if pack_column is None:
        return None
    return _try(pack_column, values, byte_limit)


def pack_values(values):
    """Pack a value column through the first matching codec, or None."""
    if not values:
        return None
    for probe in _VALUE_CODECS:
        packed = _try(probe, values)
        if packed is not None:
            return packed
    return pack_own_column(values, VALUE_PACK_BYTE_LIMIT)


# ----------------------------------------------------------------------
# record batches
# ----------------------------------------------------------------------

class RecordBatch:
    """One shuffle bucket in columnar form: an int64 key column plus a
    packed value column, with exact byte accounting."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values):
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return int(self.keys.size)

    @property
    def nbytes(self) -> int:
        return int(self.keys.nbytes) + self.values.nbytes

    def records(self) -> list:
        """The original ``(key, value)`` tuples, byte-identical."""
        return list(zip(self.keys.tolist(), self.values.unpack()))

    def __iter__(self):
        return iter(self.records())

    def __repr__(self) -> str:
        return (f"<RecordBatch n={len(self)} "
                f"values={type(self.values).__name__} "
                f"nbytes={self.nbytes}>")


def pack_records(records):
    """``records`` as one RecordBatch, or None when either column
    refuses (see the module docstring for the exact rules)."""
    keys = pack_int_keys(records)
    if keys is None:
        return None
    values = pack_values([record[1] for record in records])
    if values is None:
        return None
    return RecordBatch(keys, values)


# ----------------------------------------------------------------------
# vectorized grouping and combine kernels
# ----------------------------------------------------------------------

def group_indices_by_partition(pids: np.ndarray, num_partitions: int):
    """Per-reducer record indices, preserving record order within each.

    One stable argsort replaces ``num_records`` Python-level
    ``partition(key)`` calls; the per-bucket index arrays slice the
    packed columns directly.
    """
    order = np.argsort(pids, kind="stable")
    counts = np.bincount(pids, minlength=num_partitions)
    bounds = np.zeros(num_partitions + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return [order[bounds[t]:bounds[t + 1]]
            for t in range(num_partitions)]


#: largest |value| * count product allowed for the vectorized int sum;
#: beyond it int64 could wrap where Python promotes to bignum
_INT_SUM_LIMIT = 1 << 62


def combine_runs(keys: np.ndarray, data: np.ndarray, kernel: str):
    """Fold equal keys with ``kernel`` ("sum" | "min" | "max").

    Returns ``(keys, data)`` with one entry per distinct key, in the
    key's **first appearance** order — exactly the insertion order of
    the generic dict combine — or None when bit-identity can't be
    guaranteed (NaN under min/max, int64 overflow risk).

    Float sums run through ``np.add.at``: unbuffered, applied in index
    order, so every accumulator sees the same sequence of IEEE adds as
    the sequential Python fold. ``reduceat`` is only used where
    re-association is exact (ints, min/max).
    """
    if keys.size == 0:
        return keys, data
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_data = data[order]
    boundary = np.empty(sorted_keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.nonzero(boundary)[0]
    if kernel == "sum":
        if sorted_data.dtype.kind == "i":
            magnitude = max(abs(int(sorted_data.max())),
                            abs(int(sorted_data.min())))
            if magnitude * sorted_data.size >= _INT_SUM_LIMIT:
                return None
            combined = np.add.reduceat(sorted_data, starts)
        else:
            combined = sorted_data[starts].copy()
            rest = ~boundary
            run_ids = np.cumsum(boundary) - 1
            np.add.at(combined, run_ids[rest], sorted_data[rest])
    elif kernel in ("min", "max"):
        if sorted_data.dtype.kind == "f" and np.isnan(sorted_data).any():
            return None
        ufunc = np.minimum if kernel == "min" else np.maximum
        combined = ufunc.reduceat(sorted_data, starts)
    else:
        return None
    # restore first-appearance order, matching the generic dict combine
    first_index = order[starts]
    appearance = np.argsort(first_index, kind="stable")
    return sorted_keys[starts][appearance], combined[appearance]


def combine_column(keys: np.ndarray, values, kernel: str):
    """:func:`combine_runs` over a packed column: ``(keys, values)``, or
    None when the column or a guard refuses. :class:`ScalarValues` fold
    under "sum" | "min" | "max", :class:`PairValues` under "pair_sum"
    (each half summed)."""
    if kernel == "pair_sum" and type(values) is PairValues:
        halves = [combine_column(keys, half, "sum")
                  for half in (values.first, values.second)]
        return None if None in halves else (
            halves[0][0], PairValues(halves[0][1], halves[1][1]))
    if kernel == "pair_sum" or type(values) is not ScalarValues:
        return None
    combined = combine_runs(keys, values.data, kernel)
    return None if combined is None else (
        combined[0], ScalarValues(combined[1], values.pykind))


def concat_values(columns):
    """``columns`` as one column, in order, or None unless all are
    :class:`ScalarValues` of one Python kind or all :class:`PairValues`
    whose halves are."""
    first = columns[0]
    if all(type(column) is PairValues for column in columns):
        halves = [concat_values([column.first for column in columns]),
                  concat_values([column.second for column in columns])]
        return None if None in halves else PairValues(*halves)
    if all(type(column) is ScalarValues and column.pykind == first.pykind
           for column in columns):
        return ScalarValues(np.concatenate([column.data
                                            for column in columns]),
                            first.pykind)
    return None


#: kernels understood by :func:`combine_column`; ``combine_kernel=``
#: arguments are validated against this set
COMBINE_KERNELS = ("sum", "min", "max", "pair_sum")
