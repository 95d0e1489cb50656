"""The adaptive memory manager: ledger, LRU eviction, real spill,
and density repacking on admission."""

import os
import pickle
import threading

import numpy as np
import pytest

from repro.core import ArrayRDD, Chunk, ChunkMode
from repro.engine import (
    CacheManager,
    ClusterContext,
    MetricsRegistry,
    StorageLevel,
    memory_report,
)
from repro.engine import spill as spill_mod
from repro.engine.sizing import estimate_partition_size, estimate_size


#: the caches and contexts this test built, shut down when it ends, so
#: none leaves its spill directory to the garbage collector
_to_shut_down = []


@pytest.fixture(autouse=True)
def _shut_down_when_done():
    yield
    while _to_shut_down:
        _to_shut_down.pop().shutdown()


def shut_down_when_done(owner):
    _to_shut_down.append(owner)
    return owner


def make_cache(budget=None, **kwargs):
    metrics = MetricsRegistry()
    cache = shut_down_when_done(
        CacheManager(metrics, budget_bytes=budget, **kwargs))
    return metrics, cache


def chunk_partition(mode, density, cells=512, seed=0):
    """One cached partition: ``(chunk_id, Chunk)`` records of one mode."""
    rng = np.random.default_rng(seed)
    records = []
    for chunk_id in range(3):
        valid = rng.random(cells) < density
        valid[chunk_id] = True          # never fully empty
        values = rng.standard_normal(cells)
        records.append(
            (chunk_id, Chunk.from_dense(values, valid, mode=mode)))
    return records


class TestByteLedger:
    def test_used_bytes_is_a_running_total(self):
        _metrics, cache = make_cache()
        assert cache.used_bytes() == 0
        data_a = [bytes(500)]
        data_b = [bytes(300)]
        cache.put(1, 0, data_a)
        cache.put(1, 1, data_b)
        expected = (estimate_partition_size(data_a)
                    + estimate_partition_size(data_b))
        assert cache.used_bytes() == expected
        cache.drop_partition(1, 0)
        assert cache.used_bytes() == estimate_partition_size(data_b)
        cache.drop_rdd(1)
        assert cache.used_bytes() == 0

    def test_overwrite_replaces_size_not_adds(self):
        _metrics, cache = make_cache()
        cache.put(1, 0, [bytes(500)])
        cache.put(1, 0, [bytes(100)])
        assert cache.used_bytes() == estimate_partition_size([bytes(100)])

    def test_ledger_matches_block_sum_after_eviction_storm(self):
        _metrics, cache = make_cache(budget=3000)
        for i in range(20):
            cache.put(1, i, [bytes(400)], allow_spill=(i % 2 == 0))
        resident = sum(cache._infos[key].size for key in cache._blocks)
        assert cache.used_bytes() == resident
        assert cache.used_bytes() <= 3000

    def test_clear_resets_everything(self):
        _metrics, cache = make_cache(budget=900)
        cache.put(1, 0, [bytes(400)], allow_spill=True)
        cache.put(1, 1, [bytes(400)], allow_spill=True)
        cache.put(1, 2, [bytes(400)], allow_spill=True)
        assert cache.spilled_count() > 0
        cache.clear()
        assert cache.used_bytes() == 0
        assert cache.block_count() == 0
        assert cache.spilled_count() == 0


class TestConcurrency:
    def test_concurrent_put_get_under_tight_budget(self):
        _metrics, cache = make_cache(budget=5000)
        errors = []

        def worker(worker_id):
            try:
                for i in range(50):
                    key = (worker_id, i % 7)
                    cache.put(key[0], key[1], [bytes(300 + i)],
                              allow_spill=(i % 3 == 0))
                    cache.get(key[0], key[1])
                    if i % 5 == 0:
                        cache.drop_partition(key[0], key[1])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        resident = sum(cache._infos[key].size for key in cache._blocks)
        assert cache.used_bytes() == resident
        assert cache.used_bytes() <= 5000 or cache.block_count() == 1


class TestSpill:
    def test_spill_frees_ram_and_reload_is_byte_identical(self):
        metrics, cache = make_cache(budget=700)
        victim = [(i, float(i)) for i in range(40)]
        reference = pickle.dumps(victim)
        cache.put(1, 0, victim, allow_spill=True)
        cache.put(2, 0, [bytes(600)])
        # the victim is out of RAM, on disk, and its file really exists
        assert cache.block_count() == 1
        assert cache.spilled_count() == 1
        assert metrics.cache_spills == 1
        assert metrics.disk_write_bytes == cache.spilled_bytes()
        path = next(iter(cache._spilled.values())).path
        assert os.path.getsize(path) == cache.spilled_bytes()
        found, reloaded = cache.get(1, 0)
        assert found
        assert pickle.dumps(reloaded) == reference
        assert metrics.cache_reloads == 1
        assert metrics.disk_read_bytes == metrics.disk_write_bytes

    @pytest.mark.parametrize("mode,density", [
        (ChunkMode.DENSE, 0.9),
        (ChunkMode.SPARSE, 0.2),
        (ChunkMode.SUPER_SPARSE, 0.002),
    ])
    def test_chunk_spill_roundtrip_all_modes(self, mode, density):
        records = chunk_partition(mode, density)
        encoded = spill_mod.encode_block(records)
        decoded = spill_mod.decode_block(encoded)
        assert pickle.dumps(decoded) == pickle.dumps(records)

    def test_chunk_spill_through_cache(self):
        records = chunk_partition(ChunkMode.SUPER_SPARSE, 0.002)
        _metrics, cache = make_cache(budget=100)
        cache.put(1, 0, records, allow_spill=True)
        cache.put(2, 0, [bytes(80)])
        assert cache.spilled_count() == 1
        found, reloaded = cache.get(1, 0)
        assert found
        assert pickle.dumps(reloaded) == pickle.dumps(records)

    @pytest.mark.parametrize("column", ["chunks", "arrays"])
    def test_decoded_columns_carry_canonical_dtype(self, column):
        # pickle memoizes dtypes by identity: a partition mixing fresh
        # and decoded records must pickle like an all-fresh one
        if column == "chunks":
            records = chunk_partition(ChunkMode.SPARSE, 0.2)
        else:
            records = [(i, np.arange(8.0) + i) for i in range(3)]
        decoded = spill_mod.decode_block(spill_mod.encode_block(records))
        for _cid, value in decoded:
            arrays = ([value.payload, value.mask.words]
                      if column == "chunks" else [value])
            for arr in arrays:
                assert arr.dtype is np.dtype(arr.dtype.str)
        mixed = [records[0], decoded[1], records[2]]
        assert pickle.dumps(mixed) == pickle.dumps(records)

    def test_fallback_decode_carries_canonical_dtype(self):
        # a non-pair record forces the plain-pickle fallback; its arrays
        # must come back as mixable with fresh ones as the column path's
        def fresh():
            return [(i, np.arange(8.0) + i) for i in range(3)] + ["tail"]

        decoded = spill_mod.decode_block(spill_mod.encode_block(fresh()))
        assert decoded[0][1].dtype is np.dtype("float64")
        mixed = [decoded[0]] + fresh()[1:]
        assert pickle.dumps(mixed) == pickle.dumps(fresh())

    def test_put_purges_stale_spill(self):
        _metrics, cache = make_cache(budget=700)
        cache.put(1, 0, ["old", bytes(400)], allow_spill=True)
        cache.put(2, 0, [bytes(600)])
        assert cache.spilled_count() == 1
        stale_path = next(iter(cache._spilled.values())).path
        cache.put(1, 0, ["new"], allow_spill=True)
        assert cache.spilled_count() == 0
        assert not os.path.exists(stale_path)
        found, data = cache.get(1, 0)
        assert found and data == ["new"]

    def test_drop_partition_removes_spill_file(self):
        _metrics, cache = make_cache(budget=700)
        cache.put(1, 0, [bytes(400)], allow_spill=True)
        cache.put(2, 0, [bytes(600)])
        path = next(iter(cache._spilled.values())).path
        assert cache.drop_partition(1, 0)
        assert not os.path.exists(path)
        found, _ = cache.get(1, 0)
        assert not found

    def test_memory_only_victim_is_not_spilled(self):
        metrics, cache = make_cache(budget=700)
        cache.put(1, 0, [bytes(400)], allow_spill=False)
        cache.put(2, 0, [bytes(600)], allow_spill=True)
        assert cache.spilled_count() == 0
        assert metrics.cache_spills == 0
        assert metrics.cache_evictions == 1


class TestEvictionPolicies:
    def test_lru_evicts_oldest(self):
        _metrics, cache = make_cache(budget=1100)
        cache.put(1, 0, [bytes(500)], allow_spill=False)
        cache.put(2, 0, [bytes(500)], allow_spill=False)
        cache.get(1, 0)                  # freshen rdd 1
        cache.put(3, 0, [bytes(500)], allow_spill=False)
        assert not cache.contains(2, 0)
        assert cache.contains(1, 0)


class TestLineageRecovery:
    def test_recompute_after_drop_with_budgeted_cache(self):
        ctx = ClusterContext(num_executors=2, default_parallelism=2,
                             cache_budget_bytes=50_000)
        rdd = ctx.parallelize(range(100), 4) \
                 .map(lambda x: x * 3) \
                 .persist(StorageLevel.MEMORY)
        expected = rdd.collect()
        assert ctx.cache.drop_partition(rdd.rdd_id, 1)
        assert rdd.collect() == expected
        assert ctx.metrics.recomputations == 1

    def test_spilled_then_dropped_block_recomputes(self):
        ctx = shut_down_when_done(ClusterContext(
            num_executors=2, default_parallelism=2,
            cache_budget_bytes=1500))
        rdd = ctx.parallelize([bytes(600)] * 4, 4) \
                 .persist(StorageLevel.MEMORY_AND_DISK)
        assert rdd.count() == 4
        assert ctx.cache.spilled_count() > 0
        spilled_key = next(iter(ctx.cache._spilled))
        assert ctx.cache.drop_partition(*spilled_key)
        assert rdd.count() == 4

    def test_shutdown_unlinks_spill_files_and_reuse_recomputes(
            self, tmp_path):
        spill_dir = str(tmp_path)
        with ClusterContext(num_executors=2, default_parallelism=2,
                            cache_budget_bytes=1500,
                            spill_dir=spill_dir) as ctx:
            rdd = ctx.parallelize([bytes([i]) * 600 for i in range(4)], 4) \
                     .persist(StorageLevel.MEMORY_AND_DISK)
            expected = rdd.collect()
            assert os.listdir(spill_dir)
        assert os.listdir(spill_dir) == []
        assert ctx.cache.spilled_count() == 0
        assert ctx.cache.block_count() > 0      # in-memory blocks stay
        assert rdd.collect() == expected
        assert ctx.metrics.recomputations > 0
        ctx.shutdown()
        assert os.listdir(spill_dir) == []

    def test_shutdown_removes_own_spill_directory_and_reuse_makes_fresh(
            self):
        ctx = ClusterContext(num_executors=2, default_parallelism=2,
                             cache_budget_bytes=1500)
        rdd = ctx.parallelize([bytes([i]) * 600 for i in range(4)], 4) \
                 .persist(StorageLevel.MEMORY_AND_DISK)
        expected = rdd.collect()
        first = ctx.cache.spill_directory()
        assert os.listdir(first)
        ctx.shutdown()
        assert not os.path.exists(first)
        # the context is usable again: spilling makes a new directory
        again = ctx.parallelize([bytes([i]) * 600 for i in range(4)], 4) \
                   .persist(StorageLevel.MEMORY_AND_DISK)
        assert again.collect() == expected
        second = ctx.cache.spill_directory()
        assert second != first and os.listdir(second)
        ctx.shutdown()
        assert not os.path.exists(second)


class TestExactChunkSizing:
    @pytest.mark.parametrize("mode,density", [
        (ChunkMode.DENSE, 0.9),
        (ChunkMode.SPARSE, 0.2),
        (ChunkMode.SUPER_SPARSE, 0.002),
    ])
    def test_estimate_size_is_chunk_exact(self, mode, density):
        [(_cid, chunk)] = chunk_partition(mode, density)[:1]
        expected = int(chunk.payload.nbytes)
        mask = chunk.mask
        if mode is ChunkMode.SUPER_SPARSE:
            expected += int(mask._upper.words.nbytes)
            expected += int(mask._stored_words.nbytes)
            expected += int(mask._stored_prefix.nbytes)
        else:
            expected += int(mask.words.nbytes)
        assert estimate_size(chunk) == expected

    def test_milestone_cache_is_counted(self):
        [(_cid, chunk)] = chunk_partition(ChunkMode.SPARSE, 0.2)[:1]
        before = estimate_size(chunk)
        # a rank query lazily builds the milestone cache
        chunk.mask.rank(chunk.num_cells // 2, "milestone")
        after = estimate_size(chunk)
        assert chunk.mask._milestones is not None
        assert after == before + chunk.mask._milestones.nbytes


class TestRepackOnAdmission:
    def _sparse_dense_rdd(self, ctx):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((64, 64))
        valid = rng.random((64, 64)) < 0.05
        return ArrayRDD.from_numpy(ctx, data, (16, 16), valid=valid,
                                   mode=ChunkMode.DENSE)

    def test_admission_repacks_and_counts(self):
        ctx = ClusterContext(num_executors=2, repack_on_admission=True)
        arr = self._sparse_dense_rdd(ctx).cache()
        arr.num_chunks_materialized()
        assert ctx.metrics.chunks_repacked > 0
        assert ctx.metrics.repack_bytes_saved > 0

    def test_repacking_shrinks_resident_bytes_and_preserves_data(self):
        plain = ClusterContext(num_executors=2)
        packed = ClusterContext(num_executors=2, repack_on_admission=True)
        a = self._sparse_dense_rdd(plain).cache()
        b = self._sparse_dense_rdd(packed).cache()
        dense_a = a.collect_dense()
        dense_b = b.collect_dense()
        np.testing.assert_array_equal(dense_a[1], dense_b[1])
        np.testing.assert_allclose(
            dense_a[0][dense_a[1]], dense_b[0][dense_b[1]])
        assert packed.cache.used_bytes() < plain.cache.used_bytes()

    def test_repack_off_by_default_preserves_forced_modes(self):
        ctx = ClusterContext(num_executors=2)
        arr = self._sparse_dense_rdd(ctx).cache()
        arr.num_chunks_materialized()
        modes = {c.mode for _cid, c in arr.rdd.collect()}
        assert modes == {ChunkMode.DENSE}
        assert ctx.metrics.chunks_repacked == 0

    def test_repack_operator_fused_matches_eager(self):
        from tests._reference.eager import EagerArray

        ctx = ClusterContext(num_executors=2)
        rng = np.random.default_rng(3)
        data = rng.standard_normal((32, 32))
        arr = ArrayRDD.from_numpy(ctx, data, (8, 8))
        fused = arr.filter(lambda v: v > 1.5).repack()
        fused_records = fused.rdd.collect()
        eager = EagerArray.of(arr).filter(lambda v: v > 1.5).repack()
        assert pickle.dumps(sorted(fused_records)) == \
            pickle.dumps(sorted(eager.chunks.items()))
        assert ctx.metrics.chunks_repacked == eager.repacked


class TestBudgetedDeterminism:
    #: the spill-tier counters eviction drives; serial and threaded runs
    #: must evict and spill the same blocks, not only return equal bytes
    SPILL_FIELDS = ("disk_write_bytes", "disk_read_bytes",
                    "cache_evictions", "cache_spills")

    def _run(self, use_threads):
        with ClusterContext(num_executors=4, default_parallelism=4,
                            cache_budget_bytes=30_000,
                            use_threads=use_threads,
                            repack_on_admission=True) as ctx:
            rng = np.random.default_rng(5)
            data = rng.standard_normal((48, 48))
            valid = rng.random((48, 48)) < 0.3
            arr = ArrayRDD.from_numpy(ctx, data, (12, 12), valid=valid,
                                      mode=ChunkMode.DENSE)
            arr._collapse().persist(StorageLevel.MEMORY_AND_DISK)
            pairs = ctx.parallelize(
                [(i % 13, float(i)) for i in range(2000)], 4) \
                .persist(StorageLevel.MEMORY_AND_DISK)
            out = []
            for _round in range(3):
                out.append(sorted(
                    pairs.reduce_by_key(lambda a, b: a + b).collect()))
                out.append(arr.sum())
                out.append(sorted(arr.rdd.collect()))
            counters = {name: getattr(ctx.metrics, name)
                        for name in self.SPILL_FIELDS}
        return pickle.dumps(out), counters

    def test_serial_and_threaded_byte_identical_under_pressure(self):
        serial_bytes, serial_counters = self._run(False)
        thread_bytes, thread_counters = self._run(True)
        assert serial_counters["cache_spills"] > 0
        assert serial_counters == thread_counters
        assert serial_bytes == thread_bytes


class TestMemoryReport:
    def test_report_mentions_the_adaptive_counters(self):
        ctx = shut_down_when_done(ClusterContext(
            num_executors=2, cache_budget_bytes=1500,
            repack_on_admission=True))
        rdd = ctx.parallelize([bytes(600)] * 4, 4) \
                 .persist(StorageLevel.MEMORY_AND_DISK)
        rdd.count()
        text = memory_report(ctx)
        assert "budget: 1,500 B" in text
        assert "chunks_repacked" in text
        assert "spills" in text
        assert f"{ctx.cache.used_bytes():,} B" in text
