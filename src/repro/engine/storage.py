"""Block cache: the engine's answer to Spark's BlockManager.

Persisted RDD partitions are stored here as blocks keyed by
``(rdd_id, partition_index)``. The cache is a real memory tier:

- a **running byte ledger** — ``used_bytes()`` is O(1); every put,
  eviction, and drop adjusts the total instead of re-summing.
- **one eviction rule** — least recently used, Spark's default: over
  budget, the block read or written longest ago goes first.
- **real spill** — ``MEMORY_AND_DISK`` victims are serialized
  (:mod:`repro.engine.spill`; chunk partitions reuse the compressed
  chunk codec), written to a per-context spill directory, freed from
  RAM, and decoded back on access. Disk bytes are the true encoded
  sizes and flow into the metrics, the cost model, and the trace.
- **density-adaptive repacking** — when enabled, admission re-runs the
  paper's chunk mode policy on each chunk's current density via a
  repacker registered by ``repro.core``, shrinking stale encodings
  (``chunks_repacked`` / ``repack_bytes_saved`` counters).
"""

from __future__ import annotations

import enum
import os
import tempfile
import threading
from collections import OrderedDict

from repro.engine import spill as spill_mod
from repro.engine.sizing import estimate_partition_size
from repro.errors import EngineError

#: the admission repacker registered by ``repro.core``:
#: ``func(records) -> (new_records, chunks_repacked, bytes_saved) | None``
_REPACKER = {"func": None}


def register_repacker(func) -> None:
    """Register the density-driven chunk repacker (one, engine-wide).

    ``repro.core`` registers :func:`repro.core.chunk.repack_records`
    here so the cache never imports the array layer.
    """
    _REPACKER["func"] = func


class StorageLevel(enum.Enum):
    """How (whether) an RDD's partitions are retained after computation."""

    NONE = "none"
    MEMORY = "memory"
    MEMORY_AND_DISK = "memory_and_disk"


class BlockInfo:
    """Per-block accounting: resident size and whether eviction spills."""

    __slots__ = ("size", "allow_spill")

    def __init__(self, size: int, allow_spill: bool):
        self.size = size
        self.allow_spill = allow_spill


class _SpilledBlock:
    """One on-disk block: its file and the exact encoded byte count."""

    __slots__ = ("path", "nbytes")

    def __init__(self, path: str, nbytes: int):
        self.path = path
        self.nbytes = nbytes


class CacheManager:
    """Block store with a byte budget, a spill tier, and LRU eviction.

    ``budget_bytes=None`` means unbounded (the default for tests). The
    manager is thread-safe because the scheduler may compute partitions
    concurrently.
    """

    def __init__(self, metrics, budget_bytes=None, tracer=None,
                 spill_dir=None, repack_on_admission: bool = False):
        if budget_bytes is not None and budget_bytes < 0:
            raise EngineError(
                f"cache_budget_bytes must be >= 0, got {budget_bytes}")
        self._metrics = metrics
        self._budget_bytes = budget_bytes
        self._tracer = tracer
        self._repack = repack_on_admission
        self._blocks = OrderedDict()
        self._infos = {}
        self._spilled = {}
        self._used_bytes = 0
        self._spill_seq = 0
        self._spill_dir = spill_dir
        self._spill_tmp = None     # owned TemporaryDirectory, if lazy
        self._lock = threading.RLock()

    def _trace(self, name: str, rdd_id: int, partition_index: int,
               **attrs) -> None:
        """A zero-duration cache annotation under the current span."""
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.event(name, "cache", rdd_id=rdd_id,
                               partition=partition_index, **attrs)

    @property
    def budget_bytes(self):
        return self._budget_bytes

    def used_bytes(self) -> int:
        """Resident (in-memory) bytes — a running total, O(1)."""
        with self._lock:
            return self._used_bytes

    def spilled_bytes(self) -> int:
        """Total encoded bytes currently sitting in the spill tier."""
        with self._lock:
            return sum(block.nbytes for block in self._spilled.values())

    def block_count(self) -> int:
        with self._lock:
            return len(self._blocks)

    def spilled_count(self) -> int:
        with self._lock:
            return len(self._spilled)

    def gauges(self) -> dict:
        """The whole ledger in one lock acquisition (gauge sample),
        keyed by catalog name.

        ``cache.pressure`` is resident bytes over the budget (0.0 when
        unbounded): the eviction-pressure gauge.
        """
        with self._lock:
            resident = self._used_bytes
            spilled = sum(block.nbytes for block in
                          self._spilled.values())
            gauges = {
                "cache.resident_bytes": resident,
                "cache.spilled_bytes": spilled,
                "cache.blocks": len(self._blocks),
                "cache.spilled_blocks": len(self._spilled),
                "cache.budget_bytes": self._budget_bytes or 0,
            }
        budget = self._budget_bytes
        gauges["cache.pressure"] = resident / budget if budget else 0.0
        return gauges

    # ------------------------------------------------------------------
    # spill tier
    # ------------------------------------------------------------------

    def spill_directory(self) -> str:
        """The spill directory, created lazily on first use."""
        if self._spill_dir is None:
            self._spill_tmp = tempfile.TemporaryDirectory(
                prefix="spangle-spill-")
            self._spill_dir = self._spill_tmp.name
        return self._spill_dir

    def _write_spill(self, key, data) -> _SpilledBlock:
        self._spill_seq += 1
        encoded = spill_mod.encode_block(data)
        path = os.path.join(
            self.spill_directory(),
            f"block-{key[0]}-{key[1]}-{self._spill_seq}.spill")
        with open(path, "wb") as handle:
            handle.write(encoded)
        return _SpilledBlock(path, len(encoded))

    def _read_spill(self, block: _SpilledBlock):
        with open(block.path, "rb") as handle:
            return spill_mod.decode_block(handle.read())

    def _purge_spill(self, key) -> bool:
        """Drop ``key``'s spill file, if any (stale after a re-put)."""
        block = self._spilled.pop(key, None)
        if block is None:
            return False
        try:
            os.unlink(block.path)
        except OSError:
            pass
        return True

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def get(self, rdd_id: int, partition_index: int):
        """Return ``(found, value)``; spilled blocks decode from disk."""
        key = (rdd_id, partition_index)
        with self._lock:
            if key in self._blocks:
                self._blocks.move_to_end(key)
                self._metrics.add(cache_hits=1)
                self._trace("cache_hit", rdd_id, partition_index)
                return True, self._blocks[key]
            if key in self._spilled:
                block = self._spilled[key]
                data = self._read_spill(block)
                self._metrics.add(cache_hits=1, cache_reloads=1,
                                  disk_read_bytes=block.nbytes)
                self._trace("cache_reload", rdd_id, partition_index,
                            bytes=block.nbytes)
                return True, data
            self._metrics.add(cache_misses=1)
            self._trace("cache_miss", rdd_id, partition_index)
            return False, None

    def peek(self, rdd_id: int, partition_index: int):
        """``(found, value)`` without touching hit/miss/disk counters.

        Used by the compute-lock recheck in :meth:`RDD.iterator`: the
        initial (counted) lookup already recorded the miss; a waiter
        that finds the block populated after acquiring the lock should
        not distort the cache statistics.
        """
        key = (rdd_id, partition_index)
        with self._lock:
            if key in self._blocks:
                self._blocks.move_to_end(key)
                return True, self._blocks[key]
            if key in self._spilled:
                return True, self._read_spill(self._spilled[key])
            return False, None

    def export_entries(self, rdd_id: int) -> dict:
        """Every block of ``rdd_id`` as a shippable description.

        ``{partition_index: ("memory", data, size) | ("spill", path,
        nbytes)}`` — the process backend turns memory entries into
        shared-memory handles and spill entries into file handles the
        worker decodes (and meters) itself. No counters move and no
        recency is touched: exporting a block is not an access.
        """
        with self._lock:
            entries = {}
            for key, data in self._blocks.items():
                if key[0] == rdd_id:
                    entries[key[1]] = ("memory", data,
                                       self._infos[key].size)
            for key, block in self._spilled.items():
                if key[0] == rdd_id:
                    entries[key[1]] = ("spill", block.path, block.nbytes)
            return entries

    # ------------------------------------------------------------------
    # admission and eviction
    # ------------------------------------------------------------------

    def put(self, rdd_id: int, partition_index: int, data,
            allow_spill: bool = True) -> None:
        key = (rdd_id, partition_index)
        with self._lock:
            # a re-persisted block supersedes any spilled copy; leaving
            # the old file behind would leak disk and resurrect stale
            # data after the live copy is dropped
            self._purge_spill(key)
            if self._repack and _REPACKER["func"] is not None:
                repacked = _REPACKER["func"](data)
                if repacked is not None:
                    data, count, saved = repacked
                    self._metrics.add(chunks_repacked=count,
                                      repack_bytes_saved=saved)
                    self._trace("cache_repack", rdd_id, partition_index,
                                chunks=count, bytes_saved=saved)
            size = estimate_partition_size(data)
            if key in self._blocks:
                self._used_bytes -= self._infos[key].size
            self._blocks[key] = data
            self._infos[key] = BlockInfo(size, allow_spill)
            self._blocks.move_to_end(key)
            self._used_bytes += size
            if self._budget_bytes is not None:
                self._evict_to_budget()

    def _evict_to_budget(self) -> None:
        while (self._used_bytes > self._budget_bytes
               and len(self._blocks) > 1):
            victim_key = next(iter(self._blocks))
            victim_data = self._blocks.pop(victim_key)
            info = self._infos.pop(victim_key)
            self._used_bytes -= info.size
            self._metrics.add(cache_evictions=1)
            if info.allow_spill:
                block = self._write_spill(victim_key, victim_data)
                self._spilled[victim_key] = block
                self._metrics.add(cache_spills=1,
                                  disk_write_bytes=block.nbytes)
                self._trace("cache_spill", victim_key[0], victim_key[1],
                            bytes=info.size, disk_bytes=block.nbytes)
            else:
                self._trace("cache_evict", victim_key[0], victim_key[1],
                            bytes=info.size, spilled=False)

    # ------------------------------------------------------------------
    # removal
    # ------------------------------------------------------------------

    def drop_partition(self, rdd_id: int, partition_index: int) -> bool:
        """Simulate an executor failure losing one cached block.

        Returns whether a block was actually dropped. The next access will
        miss and trigger lineage recomputation.
        """
        key = (rdd_id, partition_index)
        with self._lock:
            dropped = self._blocks.pop(key, None) is not None
            info = self._infos.pop(key, None)
            if info is not None:
                self._used_bytes -= info.size
            dropped = self._purge_spill(key) or dropped
            return dropped

    def drop_rdd(self, rdd_id: int) -> int:
        """Unpersist every block of an RDD; returns the number dropped."""
        with self._lock:
            keys = [k for k in self._blocks if k[0] == rdd_id]
            for key in keys:
                del self._blocks[key]
                info = self._infos.pop(key, None)
                if info is not None:
                    self._used_bytes -= info.size
            spilled_keys = [k for k in self._spilled if k[0] == rdd_id]
            for key in spilled_keys:
                self._purge_spill(key)
            return len(keys) + len(spilled_keys)

    def contains(self, rdd_id: int, partition_index: int) -> bool:
        key = (rdd_id, partition_index)
        with self._lock:
            return key in self._blocks or key in self._spilled

    def drop_spilled(self) -> None:
        """Unlink every spill file and forget its block. In-memory
        blocks stay; a forgotten block recomputes from lineage on its
        next read."""
        with self._lock:
            for key in list(self._spilled):
                self._purge_spill(key)

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._infos.clear()
            self._used_bytes = 0
            self.drop_spilled()
