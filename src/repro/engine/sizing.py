"""Size estimation for shuffle/cache accounting.

Spark estimates object sizes when it decides what to spill and reports
shuffle read/write volumes; our engine needs the same so the cost model
sees realistic byte counts. The estimator is deliberately simple but exact
for the types the library actually shuffles: numpy arrays, chunks,
bitmasks, and small tuples/records around them.

Cost rule: :func:`estimate_size` runs once per task result on the
scheduler's hot path (the ``result_bytes`` counter), so it must stay
cheap. Exact builtins (``int``, ``float``, ``tuple``, ``dict``, ...) are
dispatched on ``type(obj)`` in one dict lookup; everything else walks
the probe chain. Containers still cost one call per element, so anything
big should be an array (or a class advertising ``nbytes``) that knows its
size in O(1) — not a list of small tuples.

A class whose resident footprint exceeds the ``nbytes`` it advertises
reports it as ``resident_nbytes``: a chunk's lazily built rank caches
count toward cache budgets and eviction, not toward its logical size.
"""

from __future__ import annotations

import sys

import numpy as np


def estimate_size(obj) -> int:
    """Best-effort deep size of ``obj`` in bytes.

    Exact builtin types are sized by a ``type(obj)`` lookup with the
    same values the probe chain below gives them (``bool`` is 8, as an
    ``int``). Otherwise an object's own ``resident_nbytes`` wins first
    (a chunk reports payload + mask + rank caches), then a ``nbytes``
    attribute (numpy arrays and scalars, Bitmask, RecordBatch).
    Containers are measured recursively with a small per-element
    overhead to mimic serialization framing.
    """
    kind = type(obj)
    size = _FIXED_SIZE.get(kind)
    if size is not None:
        return size
    exact = _SIZE_OF_TYPE.get(kind)
    if exact is not None:
        return exact(obj)
    return _probe_size(obj)


def _sequence_size(obj) -> int:
    return 8 + sum(map(estimate_size, obj))


def _set_size(obj) -> int:
    return 16 + sum(map(estimate_size, obj))


def _dict_size(obj) -> int:
    return (16 + sum(map(estimate_size, obj.keys()))
            + sum(map(estimate_size, obj.values())))


def _ndarray_size(obj) -> int:
    if obj.dtype.hasobject:
        # object arrays report pointer bytes only; recurse into the
        # elements for the real payload
        return 8 * obj.size + sum(map(estimate_size, obj.flat))
    return int(obj.nbytes)


#: exact types only — subclasses (namedtuples, IntEnums, numpy scalars
#: deriving from float) fall through to the probe chain, which may read
#: their ``nbytes`` first
_FIXED_SIZE = {int: 8, bool: 8, float: 8, complex: 16, type(None): 0}
_SIZE_OF_TYPE = {
    tuple: _sequence_size, list: _sequence_size,
    set: _set_size, frozenset: _set_size, dict: _dict_size,
    str: len, bytes: len, bytearray: len,
    np.ndarray: _ndarray_size,
}


def _probe_size(obj) -> int:
    if isinstance(obj, np.ndarray):
        return _ndarray_size(obj)
    resident = getattr(obj, "resident_nbytes", None)
    if resident is not None:
        return resident
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None and isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.dtype.itemsize
    if isinstance(obj, (str, bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return _sequence_size(obj)
    if isinstance(obj, dict):
        return _dict_size(obj)
    if isinstance(obj, (set, frozenset)):
        return _set_size(obj)
    if obj is None:
        return 0
    return sys.getsizeof(obj)


def estimate_partition_size(records) -> int:
    """Total size of an iterable of records (consumes nothing: pass a list).

    Packed shuffle blocks (:class:`~repro.engine.batches.RecordBatch`,
    numpy arrays) advertise exact ``nbytes`` and are reported as such in
    one step rather than sampled per record.
    """
    nbytes = getattr(records, "nbytes", None)
    if nbytes is not None and isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return sum(map(estimate_size, records))
