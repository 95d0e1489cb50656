"""Ablation benches for the design choices DESIGN.md calls out.

Beyond the paper's figures, these isolate each optimization:

- local join for matmul (Section VI-A) — operands placed by the
  product vs prepared once, so the product skips its input shuffles;
- offset-array vs bitmask encoding for static matrices (Section V-A-4)
  — the size crossover that drives the conversion rule;
- population-count strategies (Section IV-B) — naive vs builtin vs
  vectorized, the microbench behind Fig. 8's access paths;
- synchronous vs asynchronous Accumulator (Section V-B), as
  ``accumulate_axis`` runs it — barrier (job) counts and agreement.
"""

import time

import numpy as np

from benchmarks.harness import fresh_context, print_table, run_measured
from repro.bitmask import Bitmask
from repro.bitmask.popcount import (
    popcount_words_builtin,
    popcount_words_naive,
    popcount_words_vectorized,
)
from repro.core import ArrayRDD
from repro.core.accumulate import accumulate_axis
from repro.core.chunk import Chunk, ChunkMode
from repro.matrix import SpangleMatrix, encode_static
from repro.matrix.multiply import prepare_local
from repro.matrix.offsets import bitmask_bytes, offset_array_bytes


def test_ablation_local_join(benchmark):
    """Matmul on operands as built vs prepared for the local join."""
    rng = np.random.default_rng(0)
    a = rng.random((512, 512))
    a[rng.random((512, 512)) > 0.2] = 0
    b = rng.random((512, 512))
    b[rng.random((512, 512)) > 0.2] = 0
    ctx = fresh_context()
    ma = SpangleMatrix.from_numpy(ctx, a, (128, 128)).materialize()
    mb = SpangleMatrix.from_numpy(ctx, b, (128, 128)).materialize()
    la, lb = prepare_local(ma, mb)
    la.materialize()
    lb.materialize()

    def run():
        default = run_measured(
            ctx, lambda: ma.multiply(mb).array.rdd.count())
        local = run_measured(
            ctx, lambda: la.multiply(lb).array.rdd.count())
        return default, local

    default, local = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation — matmul local join",
        ["variant", "wall / modeled", "network_s"],
        [["unprepared (shuffle inputs)", default.cell(),
          f"{default.network_s:.3f}"],
         ["prepared (local join)", local.cell(),
          f"{local.network_s:.3f}"]])
    # correctness
    assert np.allclose(
        ma.multiply(mb).to_numpy(), la.multiply(lb).to_numpy())
    # preparing removes input shuffle traffic
    assert local.network_s < default.network_s
    assert local.modeled_s < default.modeled_s


def test_ablation_offset_encoding(benchmark):
    """Size crossover between bitmask and offset-array encodings."""
    num_cells = 65_536
    crossover_nnz = bitmask_bytes(num_cells) // 8  # = cells / 64

    def run():
        rows = []
        rng = np.random.default_rng(1)
        for nnz in (16, 128, crossover_nnz, 4 * crossover_nnz,
                    32 * crossover_nnz):
            offsets = rng.choice(num_cells, nnz, replace=False)
            chunk = Chunk.from_sparse(num_cells, offsets,
                                      np.ones(nnz),
                                      mode=ChunkMode.SPARSE)
            encoded = encode_static(chunk)
            rows.append((nnz, chunk.mask.nbytes,
                         offset_array_bytes(nnz),
                         type(encoded).__name__))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation — offset array vs bitmask (64k-cell chunk)",
        ["nnz", "bitmask bytes", "offset bytes", "chosen encoding"],
        rows)
    # below the crossover the offsets win; above it the bitmask does
    assert rows[0][3] == "OffsetArrayChunk"
    assert rows[-1][3] == "Chunk"
    # the rule is exactly the byte comparison
    for nnz, mask_bytes, offset_bytes, chosen in rows:
        expected = ("OffsetArrayChunk"
                    if offset_bytes < bitmask_bytes(num_cells)
                    else "Chunk")
        assert chosen == expected, nnz


def test_ablation_popcount(benchmark):
    """The three popcount strategies on the same words."""
    rng = np.random.default_rng(2)
    words = rng.integers(0, 2 ** 63, 200_000, dtype=np.int64) \
               .astype(np.uint64)
    # the naive path is per-set-bit; keep its input smaller
    naive_words = words[:2_000]

    def run():
        timings = {}
        start = time.perf_counter()
        naive_count = popcount_words_naive(naive_words)
        timings["naive (Wegner loop)"] = (
            (time.perf_counter() - start) / naive_words.size)
        start = time.perf_counter()
        builtin_count = popcount_words_builtin(words)
        timings["builtin (bit_count)"] = (
            (time.perf_counter() - start) / words.size)
        start = time.perf_counter()
        vector_count = popcount_words_vectorized(words)
        timings["vectorized (bitwise_count)"] = (
            (time.perf_counter() - start) / words.size)
        assert popcount_words_builtin(naive_words) == naive_count
        assert builtin_count == vector_count
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation — popcount strategies (per-word cost)",
        ["strategy", "ns/word"],
        [[name, f"{cost * 1e9:.1f}"]
         for name, cost in timings.items()])
    assert timings["vectorized (bitwise_count)"] \
        < timings["builtin (bit_count)"] \
        < timings["naive (Wegner loop)"]


def test_ablation_milestones(benchmark):
    """Random-access rank: milestones vs scanning from the start."""
    rng = np.random.default_rng(3)
    mask = Bitmask.from_bools(rng.random(1 << 20) < 0.3)
    positions = rng.integers(0, 1 << 20, 3_000)

    def run():
        start = time.perf_counter()
        from_scratch = [mask.rank(int(p), "vectorized")
                        for p in positions]
        scratch_s = time.perf_counter() - start
        start = time.perf_counter()
        with_milestones = [mask.rank(int(p), "milestone")
                           for p in positions]
        milestone_s = time.perf_counter() - start
        assert from_scratch == with_milestones
        return scratch_s, milestone_s

    scratch_s, milestone_s = benchmark.pedantic(run, rounds=1,
                                                iterations=1)
    print_table(
        "Ablation — random-access rank on a 1M-bit mask (3k queries)",
        ["method", "seconds"],
        [["full prefix scan", f"{scratch_s:.4f}"],
         ["milestones (64-word blocks)", f"{milestone_s:.4f}"]])
    assert milestone_s < scratch_s


def test_ablation_store_pruning(benchmark, tmp_path):
    """ChunkStore manifest pruning: a region load reads only its chunks.

    The storage-level analogue of Subarray's chunk-ID pruning — and of
    SciDB's query pushdown — measured in actual bytes read from disk.
    """
    from repro.io.store import load_array, save_array
    from repro.core import ArrayRDD

    rng = np.random.default_rng(5)
    data = rng.random((512, 512))
    ctx = fresh_context()
    arr = ArrayRDD.from_numpy(ctx, data, (64, 64))
    save_array(arr, tmp_path / "store")

    def run():
        before = ctx.metrics.snapshot()
        full = load_array(ctx, tmp_path / "store")
        full.count_valid()
        full_read = (ctx.metrics.snapshot() - before).store_read_bytes
        before = ctx.metrics.snapshot()
        window = load_array(ctx, tmp_path / "store",
                            region=((0, 0), (63, 63)))
        count = window.count_valid()
        window_read = (ctx.metrics.snapshot()
                       - before).store_read_bytes
        return full_read, window_read, count

    full_read, window_read, count = benchmark.pedantic(
        run, rounds=1, iterations=1)
    print_table(
        "Ablation — ChunkStore region pruning (512x512, 64-cell chunks)",
        ["load", "disk bytes read"],
        [["full array (64 chunks)", full_read],
         ["one-chunk region", window_read]])
    assert count == 64 * 64
    # pruning reads ~1/64th of the store
    assert window_read < full_read / 32


def test_ablation_accumulator(benchmark):
    """Sync vs async accumulate_axis: same answer, fewer barriers.

    A barrier is a job: the ``jobs_run`` delta around the call, with
    the final collect left out.
    """
    rng = np.random.default_rng(4)
    values = rng.random((64, 4096))
    valid = rng.random((64, 4096)) < 0.6
    ctx = fresh_context()
    arr = ArrayRDD.from_numpy(ctx, values, (64, 64),
                              valid=valid).materialize()

    def timed(mode):
        before = ctx.metrics.snapshot()
        start = time.perf_counter()
        out = accumulate_axis(arr, 1, "sum", mode=mode)
        seconds = time.perf_counter() - start
        barriers = (ctx.metrics.snapshot() - before).jobs_run
        return out.collect_dense(fill=0.0), seconds, barriers

    def run():
        return timed("sync"), timed("async")

    (sync_out, sync_s, sync_steps), (async_out, async_s, async_steps) = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation — accumulate_axis sync vs async (prefix sum, 64 chunks)",
        ["mode", "seconds", "barriers (jobs)"],
        [["sync (barrier per boundary)", f"{sync_s:.4f}", sync_steps],
         ["async (scan + one adjustment)", f"{async_s:.4f}",
          async_steps]])
    for got, expected in zip(async_out, sync_out):
        assert np.array_equal(got, expected)
    assert sync_steps == 64
    assert async_steps == 2
