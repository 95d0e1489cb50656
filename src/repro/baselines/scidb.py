"""SciDB-style baseline: a disk-based chunked array store.

The paper's characterization: SciDB

- is a from-scratch C++ MPP array database — fast scans, and it *pushes
  queries down* so only the chunks a query touches are read from disk;
- is **disk-based**: every operator reads chunks from disk, and large
  intermediate results (matmul temporaries) spill back to disk;
- has no special structures for sparse arrays (chunks store a cell list
  but scans pay for the whole chunk read);
- is therefore competitive on scan-shaped queries (Q1/Q3/Q4) and slow on
  compute-heavy ones (Q2/Q5) and on huge matrix products.

Chunks live as real ``.npy`` files in a temp directory; reads and writes
are metered into the engine metrics so the cost model charges disk time.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import SpangleError
from repro.matrix.vector import SpangleVector


class SciDBTimeout(SpangleError):
    """The operation exceeded the bench's bounded time."""


class SciDBSystem:
    """A miniature disk-backed array store with query pushdown."""

    name = "SciDB"

    def __init__(self, context, storage_dir=None, num_instances: int = None):
        self.context = context
        self.num_instances = num_instances or context.num_executors
        if storage_dir is None:
            self._tempdir = tempfile.mkdtemp(prefix="scidb-repro-")
            self.storage_dir = Path(self._tempdir)
        else:
            self._tempdir = None
            self.storage_dir = Path(storage_dir)
            self.storage_dir.mkdir(parents=True, exist_ok=True)
        self._arrays = {}

    def close(self) -> None:
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    def _write_chunk(self, array: str, key, data: np.ndarray) -> None:
        path = self.storage_dir / f"{array}__{key}.npy"
        np.save(path, data)
        self.context.metrics.add(disk_write_bytes=int(data.nbytes))

    def _read_chunk(self, array: str, key) -> np.ndarray:
        path = self.storage_dir / f"{array}__{key}.npy"
        data = np.load(path)
        self.context.metrics.add(disk_read_bytes=int(data.nbytes))
        return data

    def store_scenes(self, name: str, scenes, chunk_shape=(128, 128)):
        """Chunk 2-D scenes (NaN = null) into the on-disk store."""
        keys = []
        for scene_id, scene in enumerate(scenes):
            scene = np.asarray(scene, dtype=np.float64)
            rows, cols = scene.shape
            for r0 in range(0, rows, chunk_shape[0]):
                for c0 in range(0, cols, chunk_shape[1]):
                    key = f"{scene_id}_{r0}_{c0}"
                    self._write_chunk(
                        name, key,
                        scene[r0:r0 + chunk_shape[0],
                              c0:c0 + chunk_shape[1]])
                    keys.append((scene_id, r0, c0))
        self._arrays[name] = {
            "keys": keys, "chunk_shape": chunk_shape, "kind": "raster"}
        return name

    def _chunks_in_range(self, name: str, lo, hi):
        """Query pushdown: select chunk keys by coordinates, no reads."""
        info = self._arrays[name]
        ch, cw = info["chunk_shape"]
        for scene_id, r0, c0 in info["keys"]:
            if lo is not None:
                if r0 + ch <= lo[0] or r0 > hi[0]:
                    continue
                if c0 + cw <= lo[1] or c0 > hi[1]:
                    continue
            yield scene_id, r0, c0

    def _clip(self, chunk, r0, c0, lo, hi):
        if lo is None:
            return chunk
        rows, cols = chunk.shape
        r_lo = max(lo[0] - r0, 0)
        r_hi = min(hi[0] - r0 + 1, rows)
        c_lo = max(lo[1] - c0, 0)
        c_hi = min(hi[1] - c0 + 1, cols)
        return chunk[r_lo:r_hi, c_lo:c_hi]

    # ------------------------------------------------------------------
    # queries (AFL-style operators)
    # ------------------------------------------------------------------

    def aggregate_mean(self, name: str, lo=None, hi=None,
                       predicate=None) -> float:
        """avg() over a between()/filter() pushdown plan."""
        total = 0.0
        count = 0
        for scene_id, r0, c0 in self._chunks_in_range(name, lo, hi):
            chunk = self._read_chunk(name, f"{scene_id}_{r0}_{c0}")
            region = self._clip(chunk, r0, c0, lo, hi)
            mask = ~np.isnan(region)
            if predicate is not None:
                with np.errstate(invalid="ignore"):
                    mask &= predicate(region)
            total += float(region[mask].sum())
            count += int(mask.sum())
        return total / count if count else float("nan")

    def count_matching(self, name: str, predicate, lo=None,
                       hi=None) -> int:
        total = 0
        for scene_id, r0, c0 in self._chunks_in_range(name, lo, hi):
            chunk = self._read_chunk(name, f"{scene_id}_{r0}_{c0}")
            region = self._clip(chunk, r0, c0, lo, hi)
            with np.errstate(invalid="ignore"):
                total += int((predicate(region)
                              & ~np.isnan(region)).sum())
        return total

    def regrid_mean(self, name: str, grid: int, lo=None, hi=None):
        """regrid(): the compute-heavy operator the paper finds slow.

        SciDB reshapes each chunk from disk and merges boundary windows
        through an intermediate result array that is written back to
        disk (temporary data), then re-read for the final pass.
        """
        partials = {}
        for scene_id, r0, c0 in self._chunks_in_range(name, lo, hi):
            chunk = self._read_chunk(name, f"{scene_id}_{r0}_{c0}")
            region = self._clip(chunk, r0, c0, lo, hi)
            rows, cols = region.shape
            # accumulate (sum, count) per output window — boundary
            # windows spanning chunks meet in the temp array
            mask = ~np.isnan(region)
            sums = np.where(mask, region, 0.0)
            for out_r in range((rows + grid - 1) // grid):
                for out_c in range((cols + grid - 1) // grid):
                    window_sum = sums[out_r * grid:(out_r + 1) * grid,
                                      out_c * grid:(out_c + 1) * grid]
                    window_mask = mask[out_r * grid:(out_r + 1) * grid,
                                       out_c * grid:(out_c + 1) * grid]
                    key = (scene_id, r0 // grid + out_r,
                           c0 // grid + out_c)
                    s, n = partials.get(key, (0.0, 0))
                    partials[key] = (s + float(window_sum.sum()),
                                     n + int(window_mask.sum()))
        # temporary result spilled to disk, as SciDB does for
        # intermediate arrays larger than its chunk cache
        temp = np.array([[s, n] for s, n in partials.values()])
        if temp.size:
            self._write_chunk(name, "regrid_tmp", temp)
            self._read_chunk(name, "regrid_tmp")
        return {
            key: (s / n if n else float("nan"))
            for key, (s, n) in partials.items()
        }

    def density_windows(self, name: str, window: int, min_count: int,
                        lo=None, hi=None) -> int:
        counts = {}
        for scene_id, r0, c0 in self._chunks_in_range(name, lo, hi):
            chunk = self._read_chunk(name, f"{scene_id}_{r0}_{c0}")
            region = self._clip(chunk, r0, c0, lo, hi)
            mask = ~np.isnan(region)
            rows, cols = region.shape
            for out_r in range((rows + window - 1) // window):
                for out_c in range((cols + window - 1) // window):
                    key = (scene_id, r0 // window + out_r,
                           c0 // window + out_c)
                    counts[key] = counts.get(key, 0) + int(
                        mask[out_r * window:(out_r + 1) * window,
                             out_c * window:(out_c + 1) * window].sum())
        return sum(1 for n in counts.values() if n > min_count)

    # ------------------------------------------------------------------
    # linear algebra (disk-resident blocks, temp spills)
    # ------------------------------------------------------------------

    def store_matrix(self, name: str, rows, cols, values, shape,
                     block: int = 256):
        """Store a sparse matrix as dense on-disk blocks.

        SciDB has no dedicated sparse structures: a block is written
        dense (the paper's 'not entirely designed to store sparse
        arrays').
        """
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        values = np.asarray(values, dtype=np.float64)
        keys = []
        order = np.lexsort((cols // block, rows // block))
        rows, cols, values = rows[order], cols[order], values[order]
        block_ids = (rows // block) * (10 ** 9) + cols // block
        boundaries = np.nonzero(np.diff(block_ids))[0] + 1
        starts = np.concatenate([[0], boundaries]) if block_ids.size \
            else []
        ends = np.concatenate([boundaries, [block_ids.size]]) \
            if block_ids.size else []
        for start, end in zip(starts, ends):
            br = int(rows[start]) // block
            bc = int(cols[start]) // block
            dense = np.zeros((min(block, shape[0] - br * block),
                              min(block, shape[1] - bc * block)))
            dense[rows[start:end] - br * block,
                  cols[start:end] - bc * block] = values[start:end]
            self._write_chunk(name, f"b{br}_{bc}", dense)
            keys.append((br, bc))
        self._arrays[name] = {
            "keys": keys, "block": block, "shape": tuple(shape),
            "kind": "matrix"}
        return name

    def dot_vector(self, name: str, vector: SpangleVector) -> SpangleVector:
        info = self._arrays[name]
        block = info["block"]
        out = np.zeros(info["shape"][0])
        for br, bc in info["keys"]:
            dense = self._read_chunk(name, f"b{br}_{bc}")
            out[br * block:br * block + dense.shape[0]] += \
                dense @ vector.data[bc * block:bc * block
                                    + dense.shape[1]]
        return SpangleVector(out, "col")

    def vector_dot(self, name: str, vector: SpangleVector) -> SpangleVector:
        info = self._arrays[name]
        block = info["block"]
        out = np.zeros(info["shape"][1])
        for br, bc in info["keys"]:
            dense = self._read_chunk(name, f"b{br}_{bc}")
            out[bc * block:bc * block + dense.shape[1]] += \
                vector.data[br * block:br * block
                            + dense.shape[0]] @ dense
        return SpangleVector(out, "row")

    def multiply(self, left: str, right: str, out: str,
                 max_temp_bytes: int = None) -> str:
        """spgemm(): block matmul with disk-resident temporaries.

        Every partial product is written to disk and re-read for the
        gather — the disk traffic that makes SciDB's big matmuls slow
        and, past ``max_temp_bytes``, abandoned (the paper's 'did not
        complete in the bounded time').
        """
        left_info = self._arrays[left]
        right_info = self._arrays[right]
        block = left_info["block"]
        if right_info["block"] != block:
            raise SpangleError("block size mismatch")
        right_by_k = {}
        for br, bc in right_info["keys"]:
            right_by_k.setdefault(br, []).append(bc)
        temp_bytes = 0
        partial_keys = {}
        serial = 0
        for br, bc in left_info["keys"]:
            a = self._read_chunk(left, f"b{br}_{bc}")
            for out_c in right_by_k.get(bc, ()):
                b = self._read_chunk(right, f"b{bc}_{out_c}")
                partial = a @ b
                if not partial.any():
                    continue
                temp_key = f"tmp{serial}"
                serial += 1
                self._write_chunk(out, temp_key, partial)
                temp_bytes += int(partial.nbytes)
                if max_temp_bytes is not None \
                        and temp_bytes > max_temp_bytes:
                    raise SciDBTimeout(
                        f"spgemm temp data exceeded "
                        f"{max_temp_bytes} bytes"
                    )
                partial_keys.setdefault((br, out_c), []).append(temp_key)
        keys = []
        for (br, out_c), temps in partial_keys.items():
            total = None
            for temp_key in temps:
                partial = self._read_chunk(out, temp_key)
                total = partial if total is None else total + partial
            self._write_chunk(out, f"b{br}_{out_c}", total)
            keys.append((br, out_c))
        self._arrays[out] = {
            "keys": keys, "block": block,
            "shape": (left_info["shape"][0], right_info["shape"][1]),
            "kind": "matrix"}
        return out

    def matrix_to_numpy(self, name: str) -> np.ndarray:
        info = self._arrays[name]
        block = info["block"]
        out = np.zeros(info["shape"])
        for br, bc in info["keys"]:
            dense = self._read_chunk(name, f"b{br}_{bc}")
            out[br * block:br * block + dense.shape[0],
                bc * block:bc * block + dense.shape[1]] = dense
        return out
