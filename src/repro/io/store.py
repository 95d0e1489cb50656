"""ChunkStore, format 2: a file of chunk-codec buffers per partition (the
layout, overwrite order and read path: docs/ARCHITECTURE.md)."""

from __future__ import annotations

import dataclasses
import json
import mmap
import os
from functools import partial
from pathlib import Path

import numpy as np

from repro.core import mapper
from repro.core.array_rdd import ArrayRDD
from repro.core.chunk_codec import ChunkValues, probe_chunks
from repro.core.metadata import ArrayMetadata
from repro.engine import HashPartitioner
from repro.errors import IngestError

MANIFEST = "manifest.json"
FORMAT_VERSION = 2
ALIGN = 64


def _write_partition(directory, index, records) -> list:
    """Write one partition's file; ``[(run, slots)]``, a run per dtype."""
    by_dtype, runs, offset = {}, [], 0
    for chunk_id, chunk in records:
        by_dtype.setdefault(chunk.payload.dtype, []).append((chunk_id, chunk))
    if not by_dtype:
        return runs
    name = f"part_{index}.bin"
    with open(directory / f"{name}.tmp", "wb") as out:
        for dtype, pairs in by_dtype.items():
            column = probe_chunks([c for _, c in pairs], None)
            if column is None:
                raise IngestError(f"cannot store {dtype} chunk payloads")
            keys, buffers = np.array([k for k, _ in pairs], dtype=np.int64), []
            for array in (keys, *column.buffers()):
                offset += out.write(bytes(-offset % ALIGN))
                buffers.append([offset, array.dtype.str, array.size])
                offset += out.write(array)
            spans = (keys.itemsize + column.slot_nbytes()).tolist()
            runs.append(({"file": name, "end": offset, "buffers": buffers},
                         list(zip(keys.tolist(), range(keys.size), spans))))
    return runs


def save_array(array: ArrayRDD, directory) -> int:
    """Persist an ArrayRDD; returns the number of chunks written. A
    previous store in ``directory``, of either format, is replaced."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write = array.rdd.map_partitions_with_index(
        partial(_write_partition, directory))
    try:
        written = sum(array.context.run_job(write, list), [])
    except BaseException:
        for orphan in directory.glob("part_*.tmp"):
            orphan.unlink()
        raise
    sizes = {run["file"]: run["end"] for run, _slots in written}
    (directory / MANIFEST).unlink(missing_ok=True)
    for name in sizes:
        os.replace(directory / f"{name}.tmp", directory / name)
    for stale in [*directory.glob("chunk_*.npz"), *directory.glob("part_*")]:
        if stale.name not in sizes:
            stale.unlink()
    chunks = sorted((cid, run, slot, nbytes) for run, (_r, slots)
                    in enumerate(written) for cid, slot, nbytes in slots)
    manifest = dict(dataclasses.asdict(array.meta), chunks=chunks,
                    dtype=str(array.meta.dtype), format_version=FORMAT_VERSION,
                    runs=[run for run, _slots in written])
    staged = directory / f"{MANIFEST}.tmp"
    staged.write_text(json.dumps(manifest))
    os.replace(staged, directory / MANIFEST)
    array.context.metrics.add(store_write_bytes=sum(sizes.values()))
    return len(chunks)


def load_manifest(directory) -> dict:
    path = Path(directory) / MANIFEST
    try:
        manifest = json.loads(path.read_text())
        version = manifest.get("format_version")
    except (OSError, ValueError, AttributeError) as exc:
        raise IngestError(f"{path}: unreadable manifest: {exc}") from exc
    if version != FORMAT_VERSION:
        raise IngestError(f"{path}: format version {version!r} is not "
                          f"{FORMAT_VERSION}; re-save the array to read it")
    return manifest


class _LoadTask:
    """A load's partition function: each manifest row's chunk, copied out
    of an mmap (a class, so process workers can rebind its metrics)."""

    def __init__(self, directory, runs, metrics):
        self.directory, self.runs, self.metrics = directory, runs, metrics

    def __getstate__(self):
        return {**self.__dict__, "metrics": None}

    def bind_engine_context(self, context):
        self.metrics = context.metrics

    def __call__(self, _index, rows):
        rows, chunks = list(rows), {}
        for run in {row[1] for row in rows}:
            slots = [row[2] for row in rows if row[1] == run]
            chunks.update(self._read(self.runs[run], slots))
        self.metrics.add(store_read_bytes=sum(row[3] for row in rows))
        return [(row[0], chunks[row[0]]) for row in rows]

    def _read(self, run, slots) -> dict:
        path = self.directory / run["file"]
        size = path.stat().st_size if path.exists() else 0
        if size < run["end"]:
            raise IngestError(f"{path}: holds {size} of {run['end']} bytes")
        with open(path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        keys, *buffers = (np.frombuffer(mapping, dtype, count, offset)
                          for offset, dtype, count in run["buffers"])
        column = ChunkValues.from_buffers(*buffers)
        if len(slots) < keys.size:
            keys, column = keys[slots], column.gather(np.asarray(slots))
        return dict(zip(keys.tolist(), column.unpack()))


def load_array(context, directory, num_partitions=None,
               region=None) -> ArrayRDD:
    """Load a stored ArrayRDD; ``region=(lo, hi)`` prunes chunks on the
    manifest before any I/O, then applies the exact range restriction."""
    directory = Path(directory)
    manifest = load_manifest(directory)
    meta = ArrayMetadata(**{field.name: manifest[field.name]
                            for field in dataclasses.fields(ArrayMetadata)})
    in_range = None if region is None else set(
        mapper.chunk_ids_in_range(meta, *region))
    rows = [row for row in manifest["chunks"]
            if in_range is None or row[0] in in_range]
    if num_partitions is None:
        num_partitions = context.default_parallelism
    rdd = context.parallelize(rows, num_partitions,
                              HashPartitioner(num_partitions))
    array = ArrayRDD(rdd.map_partitions_with_index(
        _LoadTask(directory, manifest["runs"], context.metrics),
        preserves_partitioning=True), meta, context)
    return array if region is None else array.subarray(*region)
