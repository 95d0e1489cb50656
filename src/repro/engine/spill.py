"""Spill serialization: cached partitions as real on-disk bytes.

When the block cache (:mod:`repro.engine.storage`) evicts a
``MEMORY_AND_DISK`` victim, the partition is *actually* freed from RAM:
it is encoded to bytes here, written to the context's spill directory,
and decoded back on the next access. The byte counts charged to the
metrics and the cost model are the true encoded sizes.

Encoding prefers a columnar form over a pickle-per-record one. A
partition of ``(key, value)`` records whose value column matches a
registered spill codec ships as one packed buffer object; everything
else falls back to a plain pickle of the record list. ``repro.core``
registers the Chunk codec (:mod:`repro.core.chunk_codec`) without its
in-memory byte limit, so spilled chunk partitions reuse the compressed
SUPER_SPARSE mask layout on disk.

The contract mirrors the shuffle data plane's: decoding must be
**byte-identical** — ``pickle.dumps(decode(encode(records)))`` equals
``pickle.dumps(records)`` — so a reloaded block is indistinguishable
from one that never left memory.
"""

from __future__ import annotations

import pickle

from repro.engine.batches import canonical_values, pack_values

#: spill codecs tried in order; each ``probe(values)`` returns a packed
#: column (``unpack()`` byte-identical, ``nbytes``) or None to decline
_SPILL_CODECS = []


def register_spill_codec(probe) -> None:
    """Register ``probe(values) -> PackedValues | None`` for spill
    encoding. Higher layers register here (``repro.core`` adds the
    unbounded Chunk codec) so the engine never imports them."""
    _SPILL_CODECS.append(probe)


def _pack_column(values):
    for probe in _SPILL_CODECS:
        try:
            packed = probe(values)
        except (TypeError, ValueError, OverflowError):
            packed = None
        if packed is not None:
            return packed
    # the shuffle codecs (scalars, pairs, arrays, size-limited chunks)
    # also produce byte-identical columns; reuse them
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
