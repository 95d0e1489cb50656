"""raster_scan — SS-DB Q1..Q5 over SDSS-like scenes, serial backend.

Fig. 7a / 7b / 9b of the paper: the five Table-I queries without a
range predicate and with a chunk-aligned centre-quarter box, plus a
3-band one-filter-per-band → Q5 chain through the shared MaskRDD.
Two further ops reach the layers those never enter:

- ``calibrated_box`` writes a two-step calibration *before* the range
  predicate, ``((u * gain) + offset).subarray(box).sum()``, so the
  logical optimizer has something to do (it folds the two scalar
  kernels and hoists the subarray below them). The query module puts
  its own box first, so on ``q1_box``..``q5_box`` no rule fires: there
  the subarray kernel drops the out-of-box chunks inside the fused
  pass (``core.plan.chunks_avoided``).
- ``point_get`` is Fig. 8's random access: seeded ``ArrayRDD.get``
  point lookups, half on objects, half anywhere (mostly null sky). A hit on a
  compressed chunk pays one bitmask ``rank`` — the only rank traffic
  in the benchmark.

Why this workload: ``core.plan`` fused kernels and ``core.chunk``
decode do almost all the work; process dispatch, shared memory and
closure pickling do none. A win in the chunk data plane must show
here; an engine-dispatch win must not.
"""

from __future__ import annotations

import numpy as np

from bench import datagen, oracle
from bench.harness import Op, Session

from repro import ArrayRDD, ClusterContext, SpangleDataset
from repro.queries import SpangleRasterQueries

NAME = "raster_scan"
WHY = ("serial SS-DB Q1-Q5 (+box, +3-band MaskRDD chain, "
       "+optimizer-rewritten box sum, +point lookups): core.plan kernels "
       "and core.chunk decode dominate; engine dispatch idle")

BANDS = ("u", "g", "r")
CHUNK = (128, 128, 1)
GRID = 16
WINDOW = 32
DENSITY_MIN = 60
CHAIN_MIN = 10
FILTER_THRESHOLD = 2.0
COUNT_THRESHOLD = 5.0
CHAIN_THRESHOLDS = (1.0, 1.5, 2.0)
GAIN = 1.5
OFFSET = 0.25
POINTS = 256
SIZE = 512
OBJECTS = 220
PARTITIONS = 8
EXECUTORS = 2


def params(quick: bool) -> dict:
    return {"images": 3 if quick else 24}


def generate(seed: int, p: dict) -> dict:
    cubes, valid = datagen.sky_scenes(seed, p["images"], SIZE, OBJECTS,
                                      bands=BANDS)
    return {"cubes": cubes, "valid": valid,
            "points": datagen.lookup_points(seed, valid, POINTS)}


def _box(num_images: int):
    quarter = SIZE // 4
    return ((quarter, quarter, 0),
            (3 * quarter - 1, 3 * quarter - 1, num_images - 1))


def _above(threshold):
    return lambda xs: xs > threshold


class RasterSession(Session):
    def __init__(self, context, inputs):
        valid = inputs["valid"]
        self.arrays = {}
        for band in BANDS:
            array = ArrayRDD.from_numpy(
                context, inputs["cubes"][band], CHUNK, valid=valid,
                num_partitions=PARTITIONS,
                dim_names=("x", "y", "image"), attribute=band).cache()
            array.count_valid()
            self.arrays[band] = array
        single = SpangleRasterQueries(
            SpangleDataset({"u": self.arrays["u"]}))
        bands = SpangleDataset(dict(self.arrays))
        box = _box(valid.shape[2])

        def chain():
            dataset = bands
            for band, threshold in zip(BANDS, CHAIN_THRESHOLDS):
                dataset = dataset.filter(band, _above(threshold))
            return SpangleRasterQueries(dataset).q5_density(
                "u", WINDOW, CHAIN_MIN)

        # the driver side of every op is the query module; inside the
        # tasks, whatever is not a fused plan pass decodes chunks
        # (to_dense / valid_bools / values) and reduces them
        def op(name, fn):
            return Op(name, "queries", fn, task_layer="core.chunk")

        ops = []
        for suffix, scope in (("", None), ("_box", box)):
            ops += [
                op(f"q1{suffix}",
                   lambda s=scope: single.q1_aggregation("u", s)),
                op(f"q2{suffix}",
                   lambda s=scope: single.q2_regrid("u", GRID, s)),
                op(f"q3{suffix}",
                   lambda s=scope: single.q3_conditional_aggregation(
                       "u", _above(FILTER_THRESHOLD), s)),
                op(f"q4{suffix}",
                   lambda s=scope: single.q4_polygons(
                       "u", _above(FILTER_THRESHOLD),
                       _above(COUNT_THRESHOLD), s)),
                op(f"q5{suffix}",
                   lambda s=scope: single.q5_density(
                       "u", WINDOW, DENSITY_MIN, s)),
            ]
        ops.append(op("mask_chain", chain))

        u = self.arrays["u"]
        points = [tuple(point) for point in inputs["points"].tolist()]

        def calibrated_box():
            return ((u * GAIN) + OFFSET).subarray(*box).sum()

        def point_get():
            cells = [u.get(point) for point in points]
            return (np.array([cell is not None for cell in cells]),
                    np.array([cell or 0.0 for cell in cells]))

        ops += [Op("calibrated_box", "core.array_rdd", calibrated_box,
                   task_layer="core.chunk"),
                Op("point_get", "core.array_rdd", point_get,
                   task_layer="core.chunk")]
        super().__init__(context, ops)

    def probe_data(self) -> dict:
        # not "u": point_get leaves rank milestones on u's masks, and
        # the chunk codec refuses to pack a mask that carries them
        array = self.arrays["g"]
        return {"array": array,
                "chunks": [chunk for _cid, chunk in array.rdd.collect()],
                "lowering": lambda: array.subarray(
                    *_box(array.meta.shape[2])).map_values(abs)}


def start(inputs: dict, p: dict, workdir: str, trace: bool = False,
          backend=None) -> Session:
    context = ClusterContext(num_executors=EXECUTORS,
                             default_parallelism=PARTITIONS, trace=trace)
    return RasterSession(context, inputs)


def expected(inputs: dict, p: dict) -> dict:
    u = inputs["cubes"]["u"]
    valid = inputs["valid"]
    out = {}
    for suffix, box in (("", None), ("_box", _box(valid.shape[2]))):
        out[f"q1{suffix}"] = oracle.q1_average(u, valid, box)
        out[f"q2{suffix}"] = oracle.q2_regrid(u, valid, GRID, box)
        out[f"q3{suffix}"] = oracle.q3_conditional_average(
            u, valid, FILTER_THRESHOLD, box)
        out[f"q4{suffix}"] = oracle.q4_polygons(
            u, valid, FILTER_THRESHOLD, COUNT_THRESHOLD, box)
        out[f"q5{suffix}"] = oracle.q5_density(valid, WINDOW,
                                               DENSITY_MIN, box)
    chained = valid.copy()
    for band, threshold in zip(BANDS, CHAIN_THRESHOLDS):
        chained &= inputs["cubes"][band] > threshold
    out["mask_chain"] = oracle.q5_density(chained, WINDOW, CHAIN_MIN)
    out["calibrated_box"] = oracle.calibrated_sum(
        u, valid, GAIN, OFFSET, _box(valid.shape[2]))
    xs, ys, images = inputs["points"].T
    found = valid[xs, ys, images]
    out["point_get"] = (oracle.Exact(found), oracle.Exact(
        np.where(found, u[xs, ys, images], 0.0)))
    return out
