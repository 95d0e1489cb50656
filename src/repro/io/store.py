"""ChunkStore: chunk-granular persistence for ArrayRDDs.

SNF export materializes a dense array — right for small results, wrong
for big sparse ones. The ChunkStore keeps the chunked, compressed form:
a directory with a JSON manifest (metadata + chunk index) and one
``.npz`` per chunk holding the valid offsets and values. Loading builds
the ArrayRDD back without ever densifying, and chunks are read inside
tasks, one partition at a time.

This mirrors the storage-manager design of ArrayStore (Soroush et al.,
the paper's [18]) at the scale this repo needs: chunk-aligned files,
a manifest for pruning, validity preserved exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.array_rdd import ArrayRDD
from repro.core.chunk import Chunk
from repro.core.metadata import ArrayMetadata
from repro.engine import HashPartitioner
from repro.errors import IngestError

MANIFEST = "manifest.json"
FORMAT_VERSION = 1


def save_array(array: ArrayRDD, directory) -> int:
    """Persist an ArrayRDD; returns the number of chunk files written.

    Existing contents of ``directory`` are overwritten chunk-by-chunk;
    stale chunk files from a previous save are removed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("chunk_*.npz"):
        stale.unlink()
    meta = array.meta
    metrics = array.context.metrics
    chunk_ids = []
    for index in range(array.rdd.num_partitions):
        records = array.context.run_partition(array.rdd, index)
        for chunk_id, chunk in records:
            path = directory / f"chunk_{chunk_id}.npz"
            np.savez(path, offsets=chunk.indices(),
                     values=chunk.values())
            metrics.add(disk_write_bytes=path.stat().st_size)
            chunk_ids.append(int(chunk_id))
    manifest = {
        "format_version": FORMAT_VERSION,
        "shape": list(meta.shape),
        "chunk_shape": list(meta.chunk_shape),
        "starts": list(meta.starts),
        "dim_names": list(meta.dim_names),
        "dtype": str(meta.dtype),
        "attribute": meta.attribute,
        "chunks": sorted(chunk_ids),
    }
    (directory / MANIFEST).write_text(json.dumps(manifest, indent=2))
    return len(chunk_ids)


def load_manifest(directory) -> dict:
    directory = Path(directory)
    path = directory / MANIFEST
    if not path.exists():
        raise IngestError(f"{directory}: no {MANIFEST} — not a "
                          f"ChunkStore directory")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: corrupt manifest: {exc}") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise IngestError(
            f"{path}: unsupported format version "
            f"{manifest.get('format_version')!r}"
        )
    return manifest


def load_array(context, directory, num_partitions=None,
               region=None) -> ArrayRDD:
    """Load a stored ArrayRDD.

    ``region=(lo, hi)`` prunes chunk files by the manifest before any
    I/O happens (the store-level analogue of Subarray's ID pruning) and
    then applies the exact range restriction.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    meta = ArrayMetadata(
        tuple(manifest["shape"]), tuple(manifest["chunk_shape"]),
        starts=tuple(manifest["starts"]),
        dim_names=tuple(manifest["dim_names"]),
        dtype=np.dtype(manifest["dtype"]),
        attribute=manifest["attribute"])
    wanted = manifest["chunks"]
    if region is not None:
        from repro.core import mapper

        lo, hi = region
        in_range = set(mapper.chunk_ids_in_range(meta, lo, hi))
        wanted = [cid for cid in wanted if cid in in_range]
    if num_partitions is None:
        num_partitions = context.default_parallelism
    partitioner = HashPartitioner(num_partitions)
    assignments = [[] for _ in range(num_partitions)]
    for chunk_id in wanted:
        assignments[partitioner.partition(chunk_id)].append(chunk_id)
    cells = meta.cells_per_chunk
    metrics = context.metrics

    def read_partition(index):
        for chunk_id in assignments[index]:
            path = directory / f"chunk_{chunk_id}.npz"
            if not path.exists():
                raise IngestError(
                    f"{path}: chunk listed in manifest but missing"
                )
            metrics.add(disk_read_bytes=path.stat().st_size)
            with np.load(path) as payload:
                chunk = Chunk.from_sparse(cells, payload["offsets"],
                                          payload["values"])
            yield chunk_id, chunk

    rdd = context.generate(num_partitions, read_partition,
                           partitioner=partitioner)
    array = ArrayRDD(rdd, meta, context)
    if region is not None:
        array = array.subarray(*region)
    return array
