"""ingest_spill — the write side, thread backend, cache under pressure.

One pass: ``ArrayRDD.from_numpy`` of a three-attribute CHL-like grid
(34 % valid; dense / sparse / super-sparse latitude bands so all three
``ChunkMode``s are encoded; the third attribute arrives forced-DENSE so
admission repacking has stale encodings to fix) → persisted
``MEMORY_AND_DISK`` under a cache budget of about half the resident
size, with a spill directory and ``repack_on_admission=True`` → two
full ``sum()`` scans (the second reloads what the first spilled) →
``repro.io.store.save_array`` / ``load_array`` round trip.

Why this workload: ``core.chunk`` *encode*, ``core.chunk_codec``,
``engine.storage`` eviction and ``engine.spill`` encode/decode
dominate. A decode-side or cache-policy win that costs ingest,
admission or spill shows here, and it is the only workload whose
working set exceeds the program's cache.
"""

from __future__ import annotations

import os

from bench import datagen, oracle
from bench.harness import Op, Session

from repro import ArrayRDD, ChunkMode, ClusterContext, StorageLevel
from repro.io.store import load_array, save_array

NAME = "ingest_spill"
WHY = ("thread backend, cache budget ~1/2 working set: core.chunk "
       "encode, chunk_codec, storage eviction, spill encode/decode and "
       "io.store dominate (the write side the other workloads skip)")

ATTRIBUTES = (("chl", 1.0, None), ("sst", 2.0, None),
              ("par", 3.0, ChunkMode.DENSE))
CHUNK = (128, 128, 1)
STEPS = 4
PARTITIONS = 8
EXECUTORS = 2
#: the cache budget is this share of what the three attributes occupy
#: unbudgeted, which is 9.2 bytes per valid cell after admission
#: repacking (measured: 29.04 MB for 3 x 1.049 M valid cells)
BUDGET_SHARE = 0.5
RESIDENT_BYTES_PER_VALID_CELL = 9.2


def params(quick: bool) -> dict:
    # multiples of the chunk shape
    if quick:
        return {"lat": 256, "lon": 384}
    return {"lat": 768, "lon": 1024}


def generate(seed: int, p: dict) -> dict:
    values, valid = datagen.chl_grid(seed, p["lat"], p["lon"], STEPS)
    return {"values": values, "valid": valid}


class IngestSession(Session):
    backend = "thread"

    def __init__(self, context, inputs, workdir, spill):
        self.arrays = []
        self.store = os.path.join(workdir, "store")
        self.spill_dir = spill
        values, valid = inputs["values"], inputs["valid"]
        self._valid_cells = int(valid.sum())

        def ingest():
            self.arrays = []
            for name, gain, mode in ATTRIBUTES:
                array = ArrayRDD.from_numpy(
                    context, values * gain, CHUNK, valid=valid,
                    num_partitions=PARTITIONS, mode=mode,
                    dim_names=("lat", "lon", "t"), attribute=name)
                array.rdd.persist(StorageLevel.MEMORY_AND_DISK)
                self.arrays.append(array)
            return len(self.arrays)

        def scan():
            return tuple(array.sum() for array in self.arrays)

        # from_numpy encodes every chunk in the driver (core.chunk);
        # a scan's tasks spend their time on cache admission: repack,
        # eviction, spill write and reload (engine.storage)
        super().__init__(context, [
            Op("ingest", "core.chunk", ingest),
            Op("scan_cold", "core.array_rdd", scan,
               task_layer="engine.storage"),
            Op("scan_spilled", "core.array_rdd", scan,
               task_layer="engine.storage"),
            Op("save", "io",
               lambda: save_array(self.arrays[0], self.store)),
            Op("load", "io",
               lambda: load_array(context, self.store,
                                  num_partitions=PARTITIONS)
               .collect_dense(fill=0.0)),
        ])

    def end_pass(self) -> None:
        for array in self.arrays:
            array.unpersist()

    def layer_metrics(self) -> dict:
        stored = sum(entry.stat().st_size
                     for entry in os.scandir(self.store))
        return {"io.bytes_per_valid_cell": stored / self._valid_cells}

    def probe_data(self) -> dict:
        array = self.arrays[0]
        return {"array": array,
                "chunks": [chunk for _cid, chunk in array.rdd.collect()]}


def start(inputs: dict, p: dict, workdir: str, trace: bool = False,
          backend=None) -> Session:
    spill = os.path.join(workdir, "spill")
    os.makedirs(spill, exist_ok=True)
    unbudgeted = (RESIDENT_BYTES_PER_VALID_CELL * len(ATTRIBUTES)
                  * int(inputs["valid"].sum()))
    context = ClusterContext(
        num_executors=EXECUTORS, default_parallelism=PARTITIONS,
        use_threads=True, trace=trace, spill_dir=spill,
        cache_budget_bytes=int(unbudgeted * BUDGET_SHARE),
        repack_on_admission=True)
    return IngestSession(context, inputs, workdir, spill)


def expected(inputs: dict, p: dict) -> dict:
    values, valid = inputs["values"], inputs["valid"]
    total = float(values[valid].sum())
    sums = tuple(total * gain for _name, gain, _mode in ATTRIBUTES)
    live = valid.reshape(p["lat"] // CHUNK[0], CHUNK[0],
                         p["lon"] // CHUNK[1], CHUNK[1],
                         STEPS).any(axis=(1, 3))
    return {"ingest": len(ATTRIBUTES),
            "scan_cold": sums, "scan_spilled": sums,
            "save": int(live.sum()),
            "load": (oracle.Exact(values), oracle.Exact(valid))}
