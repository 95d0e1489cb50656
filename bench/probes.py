"""Per-layer metrics: what the trace says, and probes of each layer.

Two kinds of numbers, both taken from outside the program:

- *trace metrics* — read off a traced session's passes: harness spans
  with the engine's job → stage → task → plan spans attached beneath
  them (layer self-time shares), ``ctx.measure()`` deltas of one pass
  (exact counters, the modeled cluster cost, stage timings), the
  engine tracer's job profiles (critical path) and the driver
  thread's ``rank_counts()`` delta;
- *probes* — the harness takes the workload's own chunks / mask words /
  closures (or a seeded default sample where a workload has none) and
  times one layer's public function over them, in the driver.

A layer that a workload never enters reports 0 for its trace metrics;
probes always run, so a probe figure is comparable across workloads
only when both ran on the default sample (see bench/README.md).
"""

from __future__ import annotations

import operator
import os
import statistics
import time

import numpy as np

from bench import datagen
from bench.harness import SPAN_LAYERS, Reference

from repro import ArrayRDD, Bitmask, Chunk, ClusterContext, SpangleMatrix
from repro.bitmask.popcount import per_word_popcounts
from repro.core import chunk_codec
from repro.engine import batches, closure, shm, spill
from repro.engine.tracing import profiles_from_spans
from repro.matrix import CSRBlock

#: chunks timed by the decode/encode/codec/shm/spill probes
SAMPLE_CHUNKS = 48
#: records packed/grouped/combined by the engine.batches probes
BATCH_RECORDS = 200_000
#: buffer copied by the memcpy calibration (src + dst, each this big);
#: 16x this box's 4 MiB L2, below its shared 260 MiB L3
MEMCPY_BYTES = 64 << 20
RANK_QUERIES = 2_000
PROBE_REPEATS = 5


def timed(fn, repeats: int = PROBE_REPEATS) -> float:
    """Median seconds of ``fn()`` after one untimed call."""
    fn()
    samples = []
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples)


def _noop_partition(part):
    return [sum(1 for _ in part)]


# ----------------------------------------------------------------------
# trace metrics
# ----------------------------------------------------------------------

def trace_metrics(session, traced_passes, plain_passes, attributions,
                  last_engine_spans) -> dict:
    """Per-layer numbers of a traced run.

    ``attributions`` holds one :func:`attribute_layers` result per
    traced pass; ``last_engine_spans`` the engine spans of the last.
    """
    context = session.context
    layers = {name: sum(one["layers"][name] for one in attributions)
              for name in SPAN_LAYERS}
    total_self = sum(layers.values()) or 1.0
    out = {f"layer.{name}.self_share": layers[name] / total_self
           for name in SPAN_LAYERS}
    out["layer.engine.self_share"] = sum(
        value for name, value in layers.items()
        if name.startswith("engine.")) / total_self
    out["trace.unattributed_share"] = (
        sum(one["unattributed_s"] for one in attributions)
        / sum(one["pass_wall_s"] for one in attributions))
    # the two kinds of pass alternate in one session, so both totals
    # were taken under the same mix of host speeds (total over total:
    # over windows of six pairs its standard deviation is 2 %, that of
    # the ratio of medians 3.5 %)
    out["trace.overhead_ratio"] = (
        sum(one.wall_s for one in traced_passes)
        / sum(one.wall_s for one in plain_passes))
    out["pass.wall_s"] = statistics.median(
        one.wall_s for one in plain_passes)
    out["pass.cpu_s"] = statistics.median(
        one.cpu_s for one in plain_passes)
    for op in session.ops:
        out[f"op.{op.name}.median_s"] = statistics.median(
            one.op_wall_s[op.name] for one in plain_passes)

    # exact counters and modeled cost of ONE pass (the last traced one)
    last = traced_passes[-1].measurement
    delta, report = last.delta, last.report
    out.update({
        "cost.modeled_overhead_s":
            report.network_s + report.scheduling_s + report.disk_s,
        "core.plan.kernels_fused": delta.kernels_fused,
        "core.plan.chunks_avoided": delta.fused_chunks_avoided,
        "core.optimizer.rules_fired": delta.optimizer_rules_fired,
        "core.optimizer.chunks_pruned": delta.optimizer_chunks_pruned,
        "engine.scheduler.jobs": delta.jobs_run,
        "engine.scheduler.stages": delta.stages_run,
        "engine.scheduler.tasks": delta.tasks_launched,
        "engine.scheduler.utilization": last.utilization,
        "engine.scheduler.stage_shuffle_s": sum(
            t.wall_s for t in last.stage_timings if t.kind == "shuffle"),
        "engine.scheduler.stage_result_s": sum(
            t.wall_s for t in last.stage_timings if t.kind == "result"),
        "engine.shuffle.bytes": delta.shuffle_bytes,
        "engine.shuffle.records": delta.shuffle_records,
        "engine.shuffle.batches": delta.shuffle_batches,
        "engine.shuffle.columnar_share":
            delta.shuffle_batch_records / delta.shuffle_records
            if delta.shuffle_records else 0.0,
        "engine.shm.segments": delta.shm_segments_created,
        "engine.shm.bytes_mapped": delta.shm_bytes_mapped,
        "engine.worker.respawns": delta.worker_respawns,
        "engine.worker.task_retries": delta.task_retries,
        "engine.storage.hit_ratio":
            delta.cache_hits / (delta.cache_hits + delta.cache_misses)
            if delta.cache_hits + delta.cache_misses else 0.0,
        "engine.storage.evictions": delta.cache_evictions,
        "engine.storage.spills": delta.cache_spills,
        "engine.storage.reloads": delta.cache_reloads,
        "engine.storage.chunks_repacked": delta.chunks_repacked,
        "engine.spill.disk_write_bytes": delta.disk_write_bytes,
        "engine.spill.disk_read_bytes": delta.disk_read_bytes,
    })
    # job profiles of the last traced pass give the critical path
    profiles = profiles_from_spans(last_engine_spans,
                                   context.num_executors)
    out["engine.scheduler.critical_path_s"] = sum(
        profile.critical_path_s for profile in profiles)
    out["bitmask.rank_calls"] = traced_passes[-1].rank_calls
    out["matrix.nnz_imbalance"] = float(
        context.nnz_stats.gauges().get("imbalance") or 0.0)
    return out


# ----------------------------------------------------------------------
# default sample (for workloads that own no chunks / closures)
# ----------------------------------------------------------------------

def _default_array(context, seed: int) -> ArrayRDD:
    """A small three-band CHL-like grid: chunks in all three modes."""
    values, valid = datagen.chl_grid(seed, 768, 512, 1)
    array = ArrayRDD.from_numpy(context, values[:, :, 0], (128, 128),
                                valid=valid[:, :, 0],
                                dim_names=("lat", "lon")).cache()
    array.count_valid()
    return array


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------

def _machine() -> dict:
    src = np.ones(MEMCPY_BYTES // 8)
    dst = np.empty_like(src)
    copy_s = timed(lambda: np.copyto(dst, src))
    words = np.random.default_rng(0).integers(
        0, 1 << 63, MEMCPY_BYTES // 8, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        count_s = timed(lambda: np.bitwise_count(words))
    else:
        count_s = timed(lambda: np.unpackbits(words.view(np.uint8)).sum())
    return {"machine.reference_s": timed(Reference().sample),
            "machine.memcpy_gb_per_s": MEMCPY_BYTES / copy_s / 1e9,
            "machine.popcount_gwords_per_s": words.size / count_s / 1e9,
            "machine.nproc": len(os.sched_getaffinity(0))}


def _bitmask(words: np.ndarray, seed: int) -> dict:
    words = np.ascontiguousarray(words, dtype=np.uint64)
    mask = Bitmask(words.size * 64, words)
    other = Bitmask(words.size * 64, np.roll(words, 1))
    positions = np.random.default_rng(seed).integers(
        0, words.size * 64, RANK_QUERIES).tolist()

    def ranks():
        for position in positions:
            mask.rank(position)

    return {
        "bitmask.mask_words": words.size,
        "bitmask.popcount_gwords_per_s":
            words.size / timed(lambda: per_word_popcounts(words)) / 1e9,
        "bitmask.rank_mops_per_s": RANK_QUERIES / timed(ranks) / 1e6,
        "bitmask.and_gb_per_s":
            2 * words.nbytes / timed(lambda: mask & other) / 1e9,
    }


def _chunk_layers(chunks: list, registry) -> dict:
    """core.chunk, core.chunk_codec, engine.shm and engine.spill over
    the same sample of the workload's chunks."""
    sample = chunks[:SAMPLE_CHUNKS]
    dense = [(chunk.to_dense(0.0), chunk.valid_bools())
             for chunk in sample]
    dense_bytes = sum(values.nbytes for values, _valid in dense)
    stored = sum(chunk.nbytes for chunk in chunks)
    cells = sum(chunk.valid_count for chunk in chunks)
    decode_s = timed(lambda: [chunk.to_dense(0.0) for chunk in sample])
    encode_s = timed(lambda: [Chunk.from_dense(values, valid)
                              for values, valid in dense])
    out = {
        "core.chunk.decode_s": decode_s,
        "core.chunk.decode_gb_per_s": dense_bytes / decode_s / 1e9,
        "core.chunk.encode_s": encode_s,
        "core.chunk.encode_gb_per_s": dense_bytes / encode_s / 1e9,
        "core.chunk.bytes_per_valid_cell": stored / cells,
    }
    for mode in ("dense", "sparse", "super_sparse"):
        out[f"core.chunk.mode_share_{mode}"] = sum(
            chunk.mode.name.lower() == mode for chunk in chunks) \
            / len(chunks)

    packed = chunk_codec.probe_chunks(sample, byte_limit=None)
    out["core.chunk_codec.pack_s"] = timed(
        lambda: chunk_codec.probe_chunks(sample, byte_limit=None))
    out["core.chunk_codec.unpack_s"] = timed(packed.unpack)

    records = list(enumerate(sample))
    encoded = spill.encode_block(records)
    out["engine.spill.encode_s"] = timed(
        lambda: spill.encode_block(records))
    out["engine.spill.decode_s"] = timed(
        lambda: spill.decode_block(encoded))
    out["engine.spill.bytes_ratio"] = len(encoded) / sum(
        chunk.nbytes for chunk in sample)

    # every export needs a fresh block (exports are memoized on the
    # block's identity) and every attach a segment not mapped before
    exports, attaches, nbytes = [], [], 0
    for attempt in range(PROBE_REPEATS):
        block = list(records)
        begin = time.perf_counter()
        handle = registry.export_block(("probe", attempt), block,
                                       size_hint=len(encoded))
        exports.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        shm.resolve_segment(handle)
        attaches.append(time.perf_counter() - begin)
        nbytes = getattr(handle, "nbytes", 0)
    export_s = statistics.median(exports)
    out["engine.shm.export_s"] = export_s
    out["engine.shm.attach_s"] = statistics.median(attaches)
    out["engine.shm.export_gb_per_s"] = nbytes / export_s / 1e9
    return out


def _batches(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, BATCH_RECORDS // 16, BATCH_RECORDS)
    data = rng.random(BATCH_RECORDS)
    records = list(zip(keys.tolist(), data.tolist()))
    pids = keys % 8
    return {
        "engine.batches.pack_s":
            timed(lambda: batches.pack_records(records)),
        "engine.batches.group_s":
            timed(lambda: batches.group_indices_by_partition(pids, 8)),
        "engine.batches.combine_s":
            timed(lambda: batches.combine_runs(keys, data, "sum")),
    }


def _matrix(data: dict, seed: int, scratch) -> dict:
    pair = data.get("block_pair")
    if pair is None:
        pair = (datagen.skewed_matrix(seed, 128, 128, 0, 1, 0.25, 0.25),
                datagen.skewed_matrix(seed + 1, 128, 128, 1, 1, 0.25,
                                      0.25))
    shape = pair[0].shape
    left = SpangleMatrix.from_numpy(scratch, pair[0], shape).cache()
    right = SpangleMatrix.from_numpy(scratch, pair[1], shape).cache()
    offsets, num_rows = data.get("csr_offsets") or (
        np.flatnonzero(pair[0].ravel(order="F")), shape[0])
    return {
        "matrix.block_multiply_s":
            timed(lambda: left.multiply(right).to_numpy()),
        "matrix.csr_build_s":
            timed(lambda: CSRBlock.from_offsets(offsets, num_rows)),
    }


def layer_probes(session, seed: int, workdir: str) -> dict:
    """Time each layer's public functions over the workload's data."""
    data = session.probe_data()
    context = session.context
    out = _machine()
    scratch = ClusterContext(num_executors=1, default_parallelism=1)
    registry = shm.SharedSegmentRegistry()
    try:
        array = data.get("array") or _default_array(scratch, seed)
        chunks = data.get("chunks") or [
            chunk for _cid, chunk in array.rdd.collect()]
        words = data.get("mask_words")
        if words is None:
            words = np.concatenate(
                [chunk.flat_mask().words for chunk in chunks])
        out.update(_bitmask(words, seed))
        out.update(_chunk_layers(chunks, registry))
        out.update(_batches(seed))
        out.update(_matrix(data, seed, scratch))

        threshold = 0.5
        fused = (array * 2.0).filter(lambda xs: xs > threshold)
        owner = array.context
        out["core.plan.pass_s"] = timed(
            lambda: owner.run_partition(fused.rdd, 0))
        lowering = data.get("lowering") or (
            lambda: array.subarray(
                tuple(array.meta.starts),
                tuple(s + n // 2 for s, n in zip(array.meta.starts,
                                                 array.meta.shape)))
            .map_values(abs))
        out["core.optimizer.plan_s"] = timed(lambda: lowering().rdd)

        make_closure = data.get("closure") or (
            lambda: (array * 2.0).filter(operator.truth).rdd)
        lineage = make_closure()
        payload = closure.task_dumps(lineage)
        out["engine.closure.task_bytes"] = len(payload)
        out["engine.closure.dumps_s"] = timed(
            lambda: closure.task_dumps(lineage))
        out["engine.closure.loads_s"] = timed(
            lambda: closure.task_loads(payload))

        empty = context.parallelize(range(8), 8)
        single = context.parallelize(range(1), 1)
        out["engine.scheduler.task_overhead_us"] = timed(
            lambda: empty.map_partitions(_noop_partition).collect()) \
            / 8 * 1e6
        out["engine.worker.roundtrip_us"] = timed(
            lambda: single.map_partitions(_noop_partition).collect()) \
            * 1e6
    finally:
        registry.shutdown()
        scratch.shutdown()
    return out
