"""shuffle_process — three shuffle-bound ops on ``backend="process"``.

One pass, on two forked workers:

- ``matmul``  — power-law sparse × sparse block matmul (a row-hot left
  operand, a column-hot right one: the HOT/COLD block densities of
  ``benchmarks/test_sparse_matmul.py``), collected to the driver;
- ``regrid``  — ``aggregate_by`` collapsing the time axis of a
  1 M-cell cube: per-chunk partials, a columnar reduce, a cell → chunk
  ingest shuffle;
- ``combine`` — a two-sided and-``combine`` of two ArrayRDDs neither of
  which carries a partitioner, so both sides shuffle and the pipelined
  scheduler may overlap them.

Why this workload: ``engine.rdd`` shuffle, ``engine.batches`` packing,
``engine.shm`` export/attach, ``engine.closure`` pickling,
``engine.worker`` dispatch and ``engine.scheduler`` carry the time;
the kernels are a small share. The same pass run once on the serial
backend gives ``scale.process_over_serial``.
"""

from __future__ import annotations

import operator

from bench import datagen, oracle
from bench.harness import Op, Session

from repro import ArrayRDD, ClusterContext, SpangleMatrix

NAME = "shuffle_process"
WHY = ("process backend, 2 workers: sparse matmul + aggregate_by regrid "
       "+ two-sided combine; engine shuffle/shm/closure/worker dispatch "
       "dominate, kernels are a small share")

BLOCK = 128
REGRID_CHUNK = (64, 64, 32)
COMBINE_CHUNK = (64, 64)
VALID_FRACTION = 0.6
PARTITIONS = 8
RIGHT_PARTITIONS = 6
EXECUTORS = 2


def params(quick: bool) -> dict:
    if quick:
        return {"matrix": 256, "regrid": (128, 128, 32), "combine": 256}
    return {"matrix": 512, "regrid": (192, 192, 32), "combine": 512}


def generate(seed: int, p: dict) -> dict:
    cube, cube_valid = datagen.masked_cube(seed + 2, p["regrid"],
                                           VALID_FRACTION)
    side = (p["combine"], p["combine"])
    left, left_valid = datagen.masked_cube(seed + 3, side,
                                           VALID_FRACTION)
    right, right_valid = datagen.masked_cube(seed + 4, side,
                                             VALID_FRACTION)
    return {
        "a": datagen.skewed_matrix(seed, p["matrix"], BLOCK, hot_axis=0),
        "b": datagen.skewed_matrix(seed + 1, p["matrix"], BLOCK,
                                   hot_axis=1),
        "cube": cube, "cube_valid": cube_valid,
        "left": left, "left_valid": left_valid,
        "right": right, "right_valid": right_valid,
    }


def _unpartitioned(context, values, valid, num_partitions: int):
    """A cached ArrayRDD whose chunk RDD has no partitioner, so a join
    against it has to shuffle this side."""
    chunked = ArrayRDD.from_numpy(context, values, COMBINE_CHUNK,
                                  valid=valid, dim_names=("x", "y"))
    records = chunked.rdd.collect()
    array = ArrayRDD(context.parallelize(records, num_partitions),
                     chunked.meta, context).cache()
    array.count_valid()
    return array


class ShuffleSession(Session):
    def __init__(self, context, inputs, backend):
        self.backend = backend
        self.a = SpangleMatrix.from_numpy(
            context, inputs["a"], (BLOCK, BLOCK),
            num_partitions=PARTITIONS).cache()
        self.b = SpangleMatrix.from_numpy(
            context, inputs["b"], (BLOCK, BLOCK),
            num_partitions=PARTITIONS).cache()
        self.cube = ArrayRDD.from_numpy(
            context, inputs["cube"], REGRID_CHUNK,
            valid=inputs["cube_valid"], num_partitions=PARTITIONS,
            dim_names=("x", "y", "t")).cache()
        for warm in (self.a.nnz, self.b.nnz, self.cube.count_valid):
            warm()
        self.left = _unpartitioned(context, inputs["left"],
                                   inputs["left_valid"], PARTITIONS)
        self.right = _unpartitioned(context, inputs["right"],
                                    inputs["right_valid"],
                                    RIGHT_PARTITIONS)
        super().__init__(context, [
            Op("matmul", "matrix",
               lambda: self.a.multiply(self.b).to_numpy()),
            Op("regrid", "core.array_rdd",
               lambda: self.cube.aggregate_by(("x", "y"), "sum")
               .collect_dense(fill=0.0)),
            Op("combine", "core.array_rdd", self._combined_sum),
        ])

    def _combined(self) -> ArrayRDD:
        return self.left.combine(self.right, operator.add, how="and")

    def _combined_sum(self) -> float:
        return self._combined().sum()

    def probe_data(self) -> dict:
        blocks = self.a.array.rdd.collect()
        hot = max(blocks, key=lambda kv: kv[1].valid_count)[1]
        partner = max(self.b.array.rdd.collect(),
                      key=lambda kv: kv[1].valid_count)[1]
        return {
            "array": self.cube,
            "chunks": [chunk for _cid, chunk in
                       self.left.rdd.collect()],
            "closure": lambda: self._combined().rdd,
            "lowering": self._combined,
            "block_pair": (self.a.block_as_ndarray(hot),
                           self.b.block_as_ndarray(partner)),
        }


def start(inputs: dict, p: dict, workdir: str, trace: bool = False,
          backend=None) -> Session:
    backend = backend or "process"
    context = ClusterContext(
        num_executors=EXECUTORS, default_parallelism=PARTITIONS,
        trace=trace,
        backend="process" if backend == "process" else "thread")
    return ShuffleSession(context, inputs, backend)


def expected(inputs: dict, p: dict) -> dict:
    sums, any_valid = oracle.collapse_last_axis(inputs["cube"],
                                                inputs["cube_valid"])
    return {
        "matmul": oracle.Exact(inputs["a"] @ inputs["b"]),
        "regrid": (oracle.Close(sums, rtol=1e-12),
                   oracle.Exact(any_valid)),
        "combine": oracle.and_combine_sum(
            inputs["left"], inputs["left_valid"],
            inputs["right"], inputs["right_valid"]),
    }
