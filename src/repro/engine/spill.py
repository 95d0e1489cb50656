"""Spill serialization: cached partitions as real on-disk bytes.

When the block cache (:mod:`repro.engine.storage`) evicts a
``MEMORY_AND_DISK`` victim, the partition is *actually* freed from RAM:
it is encoded to bytes here, written to the context's spill directory,
and decoded back on the next access. The byte counts charged to the
metrics and the cost model are the true encoded sizes.

Encoding prefers a columnar form over a pickle-per-record one. A
partition of ``(key, value)`` records ships its value column as one
packed buffer object when the values' own type offers a codec
(``pack_column``, see :func:`repro.engine.batches.pack_own_column`) —
called here without the shuffle's byte limit, since a spilled partition
is large by definition and on disk a copied compressed buffer beats
pickled objects — or when a built-in shuffle codec (scalars, pairs,
small arrays) takes it; everything else falls back to a plain pickle of
the record list. ``Chunk`` columns thus reuse the compressed
SUPER_SPARSE mask layout on disk (:mod:`repro.core.chunk_codec`).

The contract mirrors the shuffle data plane's: decoding must be
**byte-identical** — ``pickle.dumps(decode(encode(records)))`` equals
``pickle.dumps(records)`` — so a reloaded block is indistinguishable
from one that never left memory.
"""

from __future__ import annotations

import pickle

from repro.engine.batches import (
    canonical_values,
    pack_own_column,
    pack_values,
)


def _pack_column(values):
    # the value type's own codec, unbounded; the built-in codecs keep
    # their byte limit on disk too
    packed = pack_own_column(values, None)
    if packed is not None:
        return packed
    return pack_values(values)


def encode_block(records) -> bytes:
    """Serialize one cached partition to spill-file bytes."""
    records = list(records)
    packed = None
    if records and all(
        type(record) is tuple and len(record) == 2 for record in records
    ):
        packed = _pack_column([record[1] for record in records])
    if packed is not None:
        body = {"keys": [record[0] for record in records],
                "column": packed}
    else:
        body = {"records": records}
    return pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)


def decode_block(data: bytes) -> list:
    """Rebuild the partition a spill file holds, byte-identically."""
    body = pickle.loads(data)
    if "records" in body:
        return canonical_values(body["records"])
    return list(zip(body["keys"], body["column"].unpack()))
