"""Adaptive memory manager under pressure: LRU spill + repacking.

Two workloads exercise the cache as a real memory tier:

- **budgeted iterative PageRank** — the adjacency lists are an
  expensive ``MEMORY_AND_DISK`` dataset read every iteration; each
  iteration also persists its (cheap, narrow) contribution vectors,
  which pushes the cache over budget mid-iteration. LRU evicts by
  recency and lands on the adjacency partition the *next* task needs —
  sequential flooding — so every later iteration reloads it from the
  spill tier and pays disk in the modeled time.
- **post-filter repacking** — raster tiles arrive dense from the
  loader with a threshold filter already applied as a validity mask
  (~2% of cells survive), so the pinned DENSE payloads are stale for
  their true density. With ``repack_on_admission`` the cache re-runs
  the paper's density→mode policy when the blocks are persisted,
  shrinking the resident footprint by the dense/sparse ratio.

Run as a script to emit the JSON artifact::

    PYTHONPATH=src python benchmarks/test_memory_pressure.py memory.json
"""

from __future__ import annotations

import json
import os

import numpy as np

if __package__ in (None, ""):
    # allow `python benchmarks/test_memory_pressure.py` (the CI smoke
    # job) as well as `pytest benchmarks/`
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from benchmarks.harness import (
    print_table,
    run_measured,
    write_trace_artifact,
)
from repro.core import ArrayRDD, ChunkMode
from repro.engine import ClusterContext, StorageLevel, memory_report

#: admission repacking must shrink resident bytes at least this much
REPACK_TARGET = 1.3

NUM_VERTICES = 60_000
NUM_EDGES = 1_500_000
PARTITIONS = 4
BLOCK = NUM_VERTICES // PARTITIONS
ITERATIONS = 12
DAMPING = 0.85
EXECUTORS = 8

FILTER_SHAPE = (256, 256)
FILTER_CHUNK = (32, 32)
FILTER_THRESHOLD = 2.0


# ----------------------------------------------------------------------
# workload 1: budgeted iterative PageRank
# ----------------------------------------------------------------------

def _edge_blocks():
    """Edges grouped by target block: ``(p, (sources, local_targets))``.

    Target-partitioned adjacency means each contribution partial only
    covers its own vertex block, so iterations aggregate by
    concatenation instead of an all-to-all sum.
    """
    rng = np.random.default_rng(42)
    src = rng.integers(0, NUM_VERTICES, NUM_EDGES)
    dst = rng.integers(0, NUM_VERTICES, NUM_EDGES)
    out_degree = np.bincount(src, minlength=NUM_VERTICES)
    records = []
    for p in range(PARTITIONS):
        lo = p * BLOCK
        sel = (dst >= lo) & (dst < lo + BLOCK)
        records.append((p, (src[sel].astype(np.int64),
                            (dst[sel] - lo).astype(np.int64))))
    return records, out_degree


def _load_links(ctx, records):
    links = ctx.parallelize(records, PARTITIONS).persist(
        StorageLevel.MEMORY_AND_DISK)
    links.count()
    return links


def _pagerank(ctx, links, out_degree):
    n = NUM_VERTICES
    inv_degree = np.where(out_degree > 0,
                          1.0 / np.maximum(out_degree, 1), 0.0)
    dangling_mask = out_degree == 0
    ranks = np.full(n, 1.0 / n)
    for _ in range(ITERATIONS):
        weights = ranks * inv_degree
        contribs = links.map_values(
            lambda st, w=weights: np.bincount(
                st[1], weights=w[st[0]], minlength=BLOCK)
        ).persist(StorageLevel.MEMORY)
        blocks = dict(contribs.collect())
        # the mass check re-reads the persisted contributions — the
        # second action that justifies caching them
        mass = contribs.map_values(lambda v: float(v.sum())) \
            .values().sum()
        dangling = float(ranks[dangling_mask].sum())
        total = np.concatenate([blocks[p] for p in range(PARTITIONS)])
        ranks = (1.0 - DAMPING) / n \
            + DAMPING * (total + dangling / n)
        contribs.unpersist()
        if mass + dangling < 1e-12:
            break
    return ranks


def _links_budget() -> int:
    """Budget = the whole adjacency + ~2.5 contribution partials.

    Mid-iteration the working set (adjacency + all four partials)
    exceeds this, so the third partial's admission must evict.
    """
    ctx = ClusterContext(num_executors=EXECUTORS,
                         default_parallelism=PARTITIONS)
    records, _ = _edge_blocks()
    _load_links(ctx, records)
    links_bytes = ctx.cache.used_bytes()
    ctx.shutdown()
    return links_bytes + int(2.5 * BLOCK * 8)


def run_pagerank() -> dict:
    budget = _links_budget()
    ctx = ClusterContext(num_executors=EXECUTORS,
                         default_parallelism=PARTITIONS,
                         cache_budget_bytes=budget)
    records, out_degree = _edge_blocks()
    links = _load_links(ctx, records)
    measured = run_measured(ctx, _pagerank, ctx, links, out_degree)
    delta = ctx.metrics.snapshot()
    report = memory_report(ctx)
    ctx.shutdown()
    modeled_s = measured.modeled_with_parallelism(EXECUTORS)

    print_table(
        f"budgeted PageRank ({NUM_VERTICES} vertices, {NUM_EDGES} "
        f"edges, {ITERATIONS} iterations, budget {budget:,} B)",
        ["wall / modeled", "modeled (cluster)", "disk", "spills",
         "reloads", "evictions"],
        [[measured.cell(), f"{modeled_s:.3f}s", f"{measured.disk_s:.3f}s",
          delta.cache_spills, delta.cache_reloads,
          delta.cache_evictions]])
    print(report)

    return {
        "budget_bytes": budget,
        "iterations": ITERATIONS,
        "num_vertices": NUM_VERTICES,
        "num_edges": NUM_EDGES,
        "modeled_s": modeled_s,
        "disk_read_bytes": delta.disk_read_bytes,
        "disk_write_bytes": delta.disk_write_bytes,
        "evictions": delta.cache_evictions,
        "spills": delta.cache_spills,
        "reloads": delta.cache_reloads,
    }


# ----------------------------------------------------------------------
# workload 2: post-filter density repacking
# ----------------------------------------------------------------------

def _run_filter_workload(repack: bool) -> dict:
    ctx = ClusterContext(num_executors=4, default_parallelism=4,
                         repack_on_admission=repack)
    rng = np.random.default_rng(7)
    data = rng.standard_normal(FILTER_SHAPE)
    # the loader applied the filter upstream (a validity mask) but
    # pinned the tile encoding DENSE — the density/mode mismatch the
    # admission repacker exists to fix
    kept = ArrayRDD.from_numpy(ctx, data, FILTER_CHUNK,
                               valid=data > FILTER_THRESHOLD,
                               mode=ChunkMode.DENSE).cache()
    kept.num_chunks_materialized()
    out = {
        "repack": repack,
        "resident_bytes": ctx.cache.used_bytes(),
        "chunks_repacked": ctx.metrics.chunks_repacked,
        "repack_bytes_saved": ctx.metrics.repack_bytes_saved,
        "dense": kept.collect_dense(),
        "memory_report": memory_report(ctx),
    }
    ctx.shutdown()
    return out


def run_repack() -> dict:
    plain = _run_filter_workload(False)
    packed = _run_filter_workload(True)
    reduction = plain["resident_bytes"] \
        / max(packed["resident_bytes"], 1)
    values_plain, valid_plain = plain.pop("dense")
    values_packed, valid_packed = packed.pop("dense")
    identical = bool(
        np.array_equal(valid_plain, valid_packed)
        and np.allclose(values_plain[valid_plain],
                        values_packed[valid_packed]))

    print_table(
        f"post-filter repacking ({FILTER_SHAPE[0]}x{FILTER_SHAPE[1]} "
        f"array, keep > {FILTER_THRESHOLD} sigma)",
        ["admission", "resident bytes", "chunks repacked",
         "bytes saved"],
        [
            ["as computed", f"{plain['resident_bytes']:,}",
             plain["chunks_repacked"], plain["repack_bytes_saved"]],
            ["repacked", f"{packed['resident_bytes']:,}",
             packed["chunks_repacked"],
             f"{packed['repack_bytes_saved']:,}"],
            ["reduction", f"{reduction:.2f}x", "", ""],
        ])
    print(packed["memory_report"])

    return {
        "resident_reduction": reduction,
        "data_identical": identical,
        "plain_resident_bytes": plain["resident_bytes"],
        "repacked_resident_bytes": packed["resident_bytes"],
        "chunks_repacked": packed["chunks_repacked"],
        "repack_bytes_saved": packed["repack_bytes_saved"],
        "memory_report": packed["memory_report"],
    }


# ----------------------------------------------------------------------
# assertions (the benchmark's "figure shape")
# ----------------------------------------------------------------------

def test_repacking_shrinks_resident_bytes():
    artifact = run_repack()
    assert artifact["data_identical"]
    assert artifact["chunks_repacked"] > 0
    assert artifact["repack_bytes_saved"] > 0
    assert "chunks_repacked" in artifact["memory_report"]
    assert artifact["resident_reduction"] >= REPACK_TARGET, (
        f"expected admission repacking to shrink resident bytes "
        f">= {REPACK_TARGET}x on a post-filter sparse array, got "
        f"{artifact['resident_reduction']:.2f}x")


# ----------------------------------------------------------------------
# CLI artifact
# ----------------------------------------------------------------------

def _traced_run(json_path: str) -> dict:
    """A traced budgeted run: spill/reload events for ``repro trace``.

    The event log carries ``cache_spill`` and ``cache_reload``
    annotations with their encoded disk bytes.
    """
    budget = _links_budget()
    ctx = ClusterContext(num_executors=EXECUTORS,
                         default_parallelism=PARTITIONS,
                         cache_budget_bytes=budget,
                         trace=True)
    records, out_degree = _edge_blocks()
    links = _load_links(ctx, records)
    ctx.tracer.clear()          # trace the iterations, not ingest
    _pagerank(ctx, links, out_degree)
    summary = write_trace_artifact(ctx, json_path)
    ctx.shutdown()
    return summary


def main(json_path: str = None) -> dict:
    artifact = {
        "pagerank": run_pagerank(),
        "repack": run_repack(),
    }
    if json_path:
        artifact["trace"] = _traced_run(json_path)
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
    print(json.dumps(artifact, indent=2))
    return artifact


if __name__ == "__main__":
    import sys

    main(sys.argv[1] if len(sys.argv) > 1 else None)
