"""Tests for the ChunkStore (chunk-granular persistence, format 2)."""

import json
import mmap
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmask import HierarchicalBitmask
from repro.core import ArrayRDD, ChunkMode
from repro.core.chunk import Chunk
from repro.engine import ClusterContext
from repro.errors import IngestError, TaskFailure
from repro.io.store import load_array, load_manifest, save_array


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


def random_array(ctx, shape=(40, 40), chunk=(16, 16), density=0.3,
                 seed=0):
    rng = np.random.default_rng(seed)
    data = rng.random(shape)
    valid = rng.random(shape) < density
    return ArrayRDD.from_numpy(
        ctx, data, chunk, valid=valid, starts=(10, 20),
        dim_names=("lat", "lon"), attribute="chl"), data, valid


def part_files(directory):
    return sorted(path.name for path in directory.glob("part_*"))


def manifest_files(directory):
    return sorted({run["file"] for run in load_manifest(directory)["runs"]})


def slot_bytes(directory):
    """``{chunk_id: stored bytes}`` from the manifest's slot spans."""
    return {cid: nbytes
            for cid, _run, _slot, nbytes in load_manifest(directory)["chunks"]}


def rank_cached(mask):
    if isinstance(mask, HierarchicalBitmask):
        mask = mask._upper
    return mask._milestones is not None


def assert_same_chunks(loaded, original):
    """Same chunk IDs, byte-identical pickles, no populated rank cache."""
    got, expected = dict(loaded), dict(original)
    assert sorted(got) == sorted(expected)
    for chunk_id, chunk in expected.items():
        assert not rank_cached(got[chunk_id].mask), chunk_id
        assert pickle.dumps(got[chunk_id]) == pickle.dumps(chunk), chunk_id


class TestSaveLoad:
    def test_roundtrip(self, ctx, tmp_path):
        arr, data, valid = random_array(ctx)
        written = save_array(arr, tmp_path / "store")
        assert written == arr.num_chunks_materialized()
        back = load_array(ctx, tmp_path / "store")
        assert back.meta.shape == arr.meta.shape
        assert back.meta.starts == (10, 20)
        assert back.meta.dim_names == ("lat", "lon")
        assert back.meta.attribute == "chl"
        values, got_valid = back.collect_dense()
        assert np.array_equal(got_valid, valid)
        assert np.allclose(values[valid], data[valid])

    def test_never_densifies(self, ctx, tmp_path):
        # a hyper-sparse huge-logical array must store ~nnz bytes
        data = np.zeros((2000, 2000))
        valid = np.zeros((2000, 2000), dtype=bool)
        for i in range(0, 2000, 400):
            valid[i, i] = True
            data[i, i] = float(i)
        arr = ArrayRDD.from_numpy(ctx, data, (500, 500), valid=valid)
        save_array(arr, tmp_path / "sparse")
        stored = sum(p.stat().st_size
                     for p in (tmp_path / "sparse").iterdir())
        assert stored < 10_000  # nowhere near the 32 MB dense size

    def test_region_pruning(self, ctx, tmp_path):
        arr, data, valid = random_array(ctx, density=1.0, seed=1)
        save_array(arr, tmp_path / "store")
        before = ctx.metrics.snapshot()
        window = load_array(ctx, tmp_path / "store",
                            region=((10, 20), (25, 35)))
        count = window.count_valid()
        delta = ctx.metrics.snapshot() - before
        assert count == 16 * 16
        # only one 16x16 chunk's slot was read from disk
        single_chunk_bytes = max(slot_bytes(tmp_path / "store").values())
        assert delta.store_read_bytes <= single_chunk_bytes * 1.5

    def test_save_overwrites_stale_chunks(self, ctx, tmp_path):
        arr, _d, _v = random_array(ctx, density=1.0, seed=2)
        save_array(arr, tmp_path / "store")
        smaller = arr.subarray((10, 20), (20, 30))
        written = save_array(smaller, tmp_path / "store")
        assert written == 1
        assert part_files(tmp_path / "store") == \
            manifest_files(tmp_path / "store")
        assert len(part_files(tmp_path / "store")) == written
        assert len(load_manifest(tmp_path / "store")["chunks"]) == written
        back = load_array(ctx, tmp_path / "store")
        assert back.count_valid() == smaller.count_valid()

    def test_disk_io_metered(self, ctx, tmp_path):
        arr, _d, _v = random_array(ctx, seed=3)
        before = ctx.metrics.snapshot()
        save_array(arr, tmp_path / "store")
        delta = ctx.metrics.snapshot() - before
        assert delta.store_write_bytes > 0
        assert delta.disk_write_bytes == 0    # the spill tier's counter
        before = ctx.metrics.snapshot()
        load_array(ctx, tmp_path / "store").count_valid()
        delta = ctx.metrics.snapshot() - before
        assert delta.store_read_bytes > 0
        assert delta.disk_read_bytes == 0

    def test_cost_model_charges_store_bytes(self, ctx, tmp_path):
        arr, _d, _v = random_array(ctx, seed=3)
        with ctx.measure() as measurement:
            save_array(arr, tmp_path / "store")
            load_array(ctx, tmp_path / "store").count_valid()
        delta = measurement.delta
        assert delta.disk_read_bytes == delta.disk_write_bytes == 0
        assert measurement.report.disk_s == (
            delta.store_read_bytes + delta.store_write_bytes) / 150e6 > 0

    def test_disk_io_charges_exact_bytes(self, ctx, tmp_path):
        """Writes charge the partition files' bytes; reads charge the
        spans of the slots read, full or pruned."""
        arr, _d, _v = random_array(ctx, density=0.6, seed=3)
        before = ctx.metrics.snapshot()
        save_array(arr, tmp_path / "store")
        written = (ctx.metrics.snapshot() - before).store_write_bytes
        assert written == sum(path.stat().st_size
                              for path in (tmp_path / "store").glob("part_*"))
        spans = slot_bytes(tmp_path / "store")
        before = ctx.metrics.snapshot()
        load_array(ctx, tmp_path / "store").count_valid()
        assert (ctx.metrics.snapshot() - before).store_read_bytes \
            == sum(spans.values())
        window = load_array(ctx, tmp_path / "store",
                            region=((10, 20), (30, 40)))
        before = ctx.metrics.snapshot()
        window.count_valid()
        assert (ctx.metrics.snapshot() - before).store_read_bytes \
            == sum(spans[cid] for cid in window._chunk_ids)

    def test_lazy_read_in_tasks(self, ctx, tmp_path):
        arr, _d, _v = random_array(ctx, seed=4)
        save_array(arr, tmp_path / "store")
        before = ctx.metrics.snapshot()
        loaded = load_array(ctx, tmp_path / "store")
        # building the RDD reads nothing; the action does
        assert (ctx.metrics.snapshot() - before).store_read_bytes == 0
        loaded.count_valid()
        assert (ctx.metrics.snapshot() - before).store_read_bytes > 0

    @pytest.mark.parametrize("mode", list(ChunkMode))
    def test_loaded_chunks_keep_their_stored_mode(self, ctx, tmp_path,
                                                  mode):
        """Forced modes survive at 30 % validity; a load does not re-run
        the density policy."""
        rng = np.random.default_rng(7)
        arr = ArrayRDD.from_numpy(ctx, rng.random((40, 40)), (16, 16),
                                  valid=rng.random((40, 40)) < 0.3,
                                  mode=mode)
        save_array(arr, tmp_path / "store")
        loaded = load_array(ctx, tmp_path / "store").rdd.collect()
        assert {chunk.mode for _cid, chunk in loaded} == {mode}
        assert_same_chunks(loaded, arr.rdd.collect())

    def test_rank_cache_is_not_stored(self, ctx, tmp_path):
        """Chunks whose milestone rank cache is populated still save;
        they load without it, pickling as freshly built chunks do."""
        arr, _d, _v = random_array(ctx, density=0.1, seed=8)
        fresh = pickle.loads(pickle.dumps(arr.rdd.collect()))
        for _cid, chunk in arr.rdd.collect():
            chunk.mask.rank(chunk.num_cells - 1)
            assert rank_cached(chunk.mask)
        save_array(arr, tmp_path / "store")
        assert_same_chunks(load_array(ctx, tmp_path / "store").rdd.collect(),
                           fresh)

    @pytest.mark.parametrize("mode", list(ChunkMode))
    def test_loaded_chunks_hold_no_mapping(self, ctx, tmp_path, mode):
        """Every loaded buffer owns its bytes: no base chain reaches the
        file mapping, so none outlives the load task."""
        rng = np.random.default_rng(9)
        arr = ArrayRDD.from_numpy(ctx, rng.random((40, 40)), (16, 16),
                                  valid=rng.random((40, 40)) < 0.3,
                                  mode=mode)
        save_array(arr, tmp_path / "store")
        for _cid, chunk in load_array(ctx, tmp_path / "store").rdd.collect():
            mask = chunk.mask
            arrays = [chunk.payload, mask._upper.words, mask._stored_words] \
                if isinstance(mask, HierarchicalBitmask) \
                else [chunk.payload, mask.words]
            for array in arrays:
                while array is not None:
                    assert not isinstance(array, mmap.mmap)
                    array = getattr(array, "base", None)


class TestOverwrite:
    def test_save_over_a_v1_directory(self, ctx, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.json").write_text(
            json.dumps({"format_version": 1, "chunks": [0, 1]}))
        for cid in (0, 1, 7):
            np.savez(store / f"chunk_{cid}.npz", offsets=np.arange(3),
                     values=np.ones(3))
        arr, _d, _v = random_array(ctx, seed=10)
        save_array(arr, store)
        assert not list(store.glob("chunk_*.npz"))
        assert part_files(store) == manifest_files(store)
        assert_same_chunks(load_array(ctx, store).rdd.collect(),
                           arr.rdd.collect())

    def test_save_over_a_larger_v2_save(self, ctx, tmp_path):
        arr, _d, _v = random_array(ctx, shape=(64, 64), seed=11)
        wide = ArrayRDD.from_chunks(ctx, arr.rdd.collect(), arr.meta,
                                    num_partitions=8)
        save_array(wide, tmp_path / "store")
        assert len(part_files(tmp_path / "store")) == 8
        narrow = ArrayRDD.from_chunks(ctx, arr.rdd.collect()[:3], arr.meta,
                                      num_partitions=2)
        save_array(narrow, tmp_path / "store")
        assert part_files(tmp_path / "store") == \
            manifest_files(tmp_path / "store")
        assert len(part_files(tmp_path / "store")) <= 2
        assert_same_chunks(load_array(ctx, tmp_path / "store").rdd.collect(),
                           narrow.rdd.collect())

    def test_failed_save_keeps_the_previous_store(self, ctx, tmp_path):
        """Partitions 0-2 write their files before partition 3 fails;
        none of them lands, and no temporary file is left."""
        arr, _d, _v = random_array(ctx, density=0.6, seed=12)
        save_array(arr, tmp_path / "store")
        records = sorted(arr.rdd.collect(), key=lambda record: record[0])
        broken = [(cid, Chunk(chunk.mode, chunk.payload.astype(object),
                              chunk.mask, chunk.num_cells))
                  if cid == 7 else (cid, chunk) for cid, chunk in records]
        bad = ArrayRDD.from_chunks(ctx, broken, arr.meta, num_partitions=4)
        with pytest.raises(TaskFailure) as excinfo:
            save_array(bad, tmp_path / "store")
        assert isinstance(excinfo.value.cause, IngestError)
        assert "object" in str(excinfo.value.cause)
        assert not list((tmp_path / "store").glob("*.tmp"))
        assert_same_chunks(load_array(ctx, tmp_path / "store").rdd.collect(),
                           records)


    def test_interrupted_save_leaves_no_manifest(self, ctx, tmp_path,
                                                 monkeypatch):
        """A save cut short while its files move into place leaves no
        manifest, so a load fails loudly instead of reading the old
        manifest over a mix of old and new (same-sized) files."""
        arr, data, valid = random_array(ctx, seed=13)
        save_array(arr, tmp_path / "store")
        doubled = ArrayRDD.from_numpy(ctx, data * 2, (16, 16), valid=valid,
                                      starts=(10, 20))
        real_replace, moved = os.replace, []

        def replace_then_fail(src, dst):
            moved.append(dst)
            if len(moved) == 2:
                raise OSError("interrupted")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_then_fail)
        with pytest.raises(OSError):
            save_array(doubled, tmp_path / "store")
        monkeypatch.undo()
        with pytest.raises(IngestError):
            load_array(ctx, tmp_path / "store")


class TestManifest:
    def test_missing_manifest(self, ctx, tmp_path):
        with pytest.raises(IngestError):
            load_array(ctx, tmp_path)

    def test_corrupt_manifest(self, ctx, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(IngestError):
            load_array(ctx, tmp_path)

    @pytest.mark.parametrize("text", ["[]", "3", '"manifest"'])
    def test_manifest_that_is_not_an_object(self, ctx, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(IngestError):
            load_array(ctx, tmp_path)

    def test_version_check(self, ctx, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format_version": 99}))
        with pytest.raises(IngestError):
            load_array(ctx, tmp_path)

    def test_version_1_is_refused_with_a_resave_hint(self, ctx, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format_version": 1, "chunks": [0]}))
        with pytest.raises(IngestError, match=r"version 1\b.*re-save"):
            load_array(ctx, tmp_path)

    def test_missing_chunk_file(self, ctx, tmp_path):
        """A partition file the manifest names is gone."""
        arr, _d, _v = random_array(ctx, seed=5)
        save_array(arr, tmp_path / "store")
        victim = next((tmp_path / "store").glob("part_*.bin"))
        victim.unlink()
        with pytest.raises(TaskFailure) as excinfo:
            load_array(ctx, tmp_path / "store").count_valid()
        assert isinstance(excinfo.value.cause, IngestError)

    def test_truncated_partition_file(self, ctx, tmp_path):
        arr, _d, _v = random_array(ctx, seed=5)
        save_array(arr, tmp_path / "store")
        victim = next((tmp_path / "store").glob("part_*.bin"))
        expected = victim.stat().st_size
        victim.write_bytes(victim.read_bytes()[:expected // 2])
        with pytest.raises(TaskFailure) as excinfo:
            load_array(ctx, tmp_path / "store").count_valid()
        cause = excinfo.value.cause
        assert isinstance(cause, IngestError)
        assert victim.name in str(cause) and str(expected) in str(cause)

    def test_object_payload_is_refused_at_save(self, ctx, tmp_path):
        arr, _d, _v = random_array(ctx, seed=5)
        cid, chunk = arr.rdd.collect()[0]
        broken = Chunk(chunk.mode, chunk.payload.astype(object), chunk.mask,
                       chunk.num_cells)
        bad = ArrayRDD.from_chunks(ctx, [(cid, broken)], arr.meta)
        with pytest.raises(TaskFailure) as excinfo:
            save_array(bad, tmp_path / "store")
        assert isinstance(excinfo.value.cause, IngestError)
        assert "object" in str(excinfo.value.cause)

    def test_manifest_contents(self, ctx, tmp_path):
        arr, _d, _v = random_array(ctx, seed=6)
        save_array(arr, tmp_path / "store")
        manifest = load_manifest(tmp_path / "store")
        assert manifest["attribute"] == "chl"
        chunk_ids = [row[0] for row in manifest["chunks"]]
        assert chunk_ids == sorted(chunk_ids)


# ----------------------------------------------------------------------
# round-trip property
# ----------------------------------------------------------------------

DTYPES = (np.float64, np.float32, np.int64, np.bool_)


@st.composite
def stored_arrays(draw):
    """Inputs of one saved array: 1-3 axes with ragged last chunks,
    negative and positive starts, densities of all three modes (0, the
    all-invalid array, included), forced modes, four dtypes (float64
    with NaN), and optionally chunks of two payload dtypes mixed in
    each partition."""
    ndim = draw(st.integers(1, 3))
    most = (60, 14, 6)[ndim - 1]
    shape = tuple(draw(st.integers(1, most)) for _ in range(ndim))
    chunk_shape = tuple(draw(st.integers(1, most)) for _ in range(ndim))
    starts = tuple(draw(st.integers(-9, 9)) for _ in range(ndim))
    return dict(
        shape=shape, chunk_shape=chunk_shape, starts=starts,
        density=draw(st.sampled_from([0.0, 0.002, 0.05, 0.4, 0.9, 1.0])),
        mode=draw(st.sampled_from([None] + list(ChunkMode))),
        dtype=draw(st.sampled_from(DTYPES)),
        mixed=draw(st.booleans()),
        save_parts=draw(st.integers(1, 4)),
        load_parts=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 10_000)))


def build_array(ctx, case):
    rng = np.random.default_rng(case["seed"])
    values = rng.normal(0.0, 10.0, size=case["shape"])
    if case["dtype"] is np.float64:
        values[rng.random(case["shape"]) < 0.1] = np.nan
    values = values.astype(case["dtype"])
    valid = rng.random(case["shape"]) < case["density"]
    array = ArrayRDD.from_numpy(ctx, values, case["chunk_shape"],
                                valid=valid, starts=case["starts"],
                                mode=case["mode"])
    records = array.rdd.collect()
    if case["mixed"]:
        records = [(cid, Chunk(chunk.mode, chunk.payload.astype(np.int32),
                               chunk.mask, chunk.num_cells))
                   if cid % 2 else (cid, chunk) for cid, chunk in records]
    return ArrayRDD.from_chunks(ctx, records, array.meta,
                                num_partitions=case["save_parts"])


def round_trip(ctx, array, directory, load_parts):
    written = save_array(array, directory)
    loaded = load_array(ctx, directory, num_partitions=load_parts)
    assert loaded.meta == array.meta
    assert loaded.rdd.num_partitions == load_parts
    records = loaded.rdd.collect()
    assert written == len(records)
    return records, loaded


@settings(max_examples=120, deadline=None)
@given(case=stored_arrays())
def test_round_trip_keeps_every_chunk_byte_identical(case, tmp_path_factory):
    directory = tmp_path_factory.mktemp("store")
    with ClusterContext(num_executors=1) as ctx:
        array = build_array(ctx, case)
        records, loaded = round_trip(ctx, array, directory,
                                     case["load_parts"])
        assert_same_chunks(records, array.rdd.collect())
        placed = loaded.rdd.map_partitions_with_index(
            lambda index, part: [(index, cid) for cid, _chunk in part])
        assert all(index == hash(cid) % case["load_parts"]
                   for index, cid in placed.collect())


def test_all_invalid_array_round_trips_empty(tmp_path):
    with ClusterContext(num_executors=1) as ctx:
        array = ArrayRDD.from_numpy(ctx, np.full((9, 7), np.nan), (4, 4))
        assert round_trip(ctx, array, tmp_path / "store", 3)[0] == []
        assert part_files(tmp_path / "store") == []


@pytest.mark.parametrize("mixed", [False, True])
def test_process_backend_round_trip_matches_serial(mixed, tmp_path):
    """Tasks on process workers write and map the files; the loaded
    chunks pickle exactly as the serial save/load's do."""
    case = dict(shape=(37, 21, 3), chunk_shape=(8, 16, 2),
                starts=(-5, 3, 0), density=0.2, mode=None,
                dtype=np.float64, mixed=mixed, save_parts=3, load_parts=4,
                seed=3)
    with ClusterContext(num_executors=1) as ctx:
        serial, _loaded = round_trip(ctx, build_array(ctx, case),
                                     tmp_path / "serial", case["load_parts"])
    with ClusterContext(num_executors=2, backend="process") as ctx:
        array = build_array(ctx, case)
        before = ctx.metrics.snapshot()
        records, _loaded = round_trip(ctx, array, tmp_path / "process",
                                      case["load_parts"])
        delta = ctx.metrics.snapshot() - before
        assert delta.store_read_bytes == sum(
            slot_bytes(tmp_path / "process").values())
    runs = load_manifest(tmp_path / "process")["runs"]
    assert (len(runs) > len({run["file"] for run in runs})) == mixed
    assert_same_chunks(records, serial)
