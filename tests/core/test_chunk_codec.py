"""The Chunk value codec for the columnar shuffle (core ↔ engine)."""

import pickle

import numpy as np
import pytest

from repro.core import ArrayMetadata, ArrayRDD, Chunk, ChunkMode, mapper
from repro.core.chunk_codec import ChunkValues, probe_chunks
from repro.core.ingest import array_rdd_from_records
from repro.engine import ClusterContext, HashPartitioner, StorageLevel, spill
from repro.engine.batches import VALUE_PACK_BYTE_LIMIT, pack_values
from repro.matrix import SpangleMatrix
from repro.matrix.offsets import OffsetArrayChunk
from tests._reference.engine import shuffle_path


def _chunk(mode, num_cells=256, seed=0):
    rng = np.random.default_rng(seed)
    density = {ChunkMode.DENSE: 0.9, ChunkMode.SPARSE: 0.1,
               ChunkMode.SUPER_SPARSE: 0.002}[mode]
    valid = rng.random(num_cells) < density
    if not valid.any():
        valid[3] = True
    return Chunk.from_dense(rng.random(num_cells), valid, mode=mode)


class TestChunkCodec:
    @pytest.mark.parametrize("mode", list(ChunkMode))
    def test_roundtrip_pickle_identical(self, mode):
        chunks = [_chunk(mode, seed=s) for s in range(4)]
        packed = pack_values(chunks)
        assert isinstance(packed, ChunkValues)
        out = packed.unpack()
        assert pickle.dumps(out) == pickle.dumps(chunks)

    def test_mixed_modes_in_one_column(self):
        chunks = [_chunk(mode, seed=7) for mode in ChunkMode]
        packed = pack_values(chunks)
        assert isinstance(packed, ChunkValues)
        assert pickle.dumps(packed.unpack()) == pickle.dumps(chunks)

    def test_gather_matches_fancy_select(self):
        chunks = [_chunk(mode, seed=s)
                  for s, mode in enumerate(ChunkMode)]
        packed = pack_values(chunks)
        idx = np.array([2, 0, 1])
        gathered = packed.gather(idx).unpack()
        assert pickle.dumps(gathered) \
            == pickle.dumps([chunks[i] for i in idx])

    def test_exact_nbytes(self):
        chunks = [_chunk(ChunkMode.SPARSE, seed=1)]
        packed = pack_values(chunks)
        # modes + num_cells + upper_lengths + payload column (data,
        # lengths, shapes) + word column (data, lengths, shapes)
        chunk = chunks[0]
        expected = (1 + 8 + 8
                    + chunk.payload.nbytes + 8 + 8
                    + chunk.mask.nbytes + 8 + 8)
        assert packed.nbytes == expected

    @pytest.mark.parametrize("byte_limit", [VALUE_PACK_BYTE_LIMIT, None],
                             ids=["shuffle", "unbounded"])
    @pytest.mark.parametrize("mode", [ChunkMode.SPARSE,
                                      ChunkMode.SUPER_SPARSE])
    def test_ranked_masks_pack_as_never_ranked_twins(self, mode,
                                                     byte_limit):
        """A populated milestone rank cache neither stops packing nor
        travels: the chunk unpacks as its never-ranked twin."""
        twin = _chunk(mode, seed=4)
        chunk = _chunk(mode, seed=4)
        chunk.mask.rank(100)  # ranks the flat mask, or the upper one
        flat = chunk.mask._upper if mode is ChunkMode.SUPER_SPARSE \
            else chunk.mask
        assert flat._milestones is not None
        packed = probe_chunks([chunk], byte_limit)
        assert isinstance(packed, ChunkValues)
        assert pickle.dumps(packed.unpack()[0]) == pickle.dumps(twin)

    def test_flat_buffers_rebuild_the_column(self):
        chunks = [_chunk(mode, seed=s) for s, mode in enumerate(ChunkMode)]
        packed = probe_chunks(chunks, None)
        buffers = packed.buffers()
        assert all(buf.ndim == 1 for buf in buffers)
        rebuilt = ChunkValues.from_buffers(*buffers)
        assert pickle.dumps(rebuilt.unpack()) == pickle.dumps(chunks)
        assert int(packed.slot_nbytes().sum()) \
            == sum(buf.nbytes for buf in buffers)

    def test_large_chunks_ship_by_reference(self):
        # one dense 4096-cell chunk is ~32KB of payload — the copies
        # would dwarf the framing savings, so the codec refuses
        assert probe_chunks([_chunk(ChunkMode.DENSE,
                                    num_cells=4096)]) is None

    def test_non_chunk_values_refuse(self):
        assert probe_chunks([1.5]) is None
        chunk = _chunk(ChunkMode.DENSE)
        assert probe_chunks([chunk, "nope"]) is None


class TestChunkShuffleByteIdentity:
    def _shuffle(self, columnar):
        with shuffle_path(columnar), \
                ClusterContext(num_executors=4) as ctx:
            chunks = [(cid, _chunk(mode, seed=cid))
                      for cid in range(12)
                      for mode in ChunkMode]
            # chunk-keyed placement shuffle: the codec packs whole
            # chunks into record batches
            rdd = ctx.parallelize(chunks, 5) \
                     .partition_by(HashPartitioner(3))
            result = rdd.collect()
            return result, ctx.metrics.snapshot()

    def test_columnar_equals_generic_across_modes(self):
        columnar_result, snap = self._shuffle(columnar=True)
        generic_result, generic_snap = self._shuffle(columnar=False)
        assert pickle.dumps(columnar_result) \
            == pickle.dumps(generic_result)
        assert snap.shuffle_batches > 0
        assert snap.shuffle_batch_records == snap.shuffle_records
        # the forced generic path really bucketed record by record
        assert generic_snap.shuffle_batches == 0
        assert generic_snap.shuffle_records == snap.shuffle_records

    def test_ingest_pipeline_byte_identity(self):
        def run(columnar):
            with shuffle_path(columnar), \
                    ClusterContext(num_executors=4) as ctx:
                rng = np.random.default_rng(11)
                meta = ArrayMetadata((30, 30), (8, 8),
                                     dim_names=("x", "y"))
                records = [((r, c), float(rng.random()))
                           for r in range(30) for c in range(30)
                           if rng.random() < 0.5]
                arr = array_rdd_from_records(ctx, records, meta)
                out = sorted(arr.rdd.collect(), key=lambda kv: kv[0])
                snap = ctx.metrics.snapshot()
                pieces = sum(ctx.parallelize(records).map_partitions(
                    lambda part: [len({mapper.chunk_id_for_coords(meta, c)
                                       for c, _v in part})]).collect())
                return out, snap, pieces

        columnar_out, snap, pieces = run(True)
        generic_out, _, _ = run(False)
        assert pickle.dumps(columnar_out) == pickle.dumps(generic_out)
        # one (offsets, values) piece per source partition and chunk
        assert snap.shuffle_records == pieces


class TestRankedSpill:
    @pytest.mark.parametrize("config", [
        dict(), dict(backend="process"),
    ], ids=["serial", "process"])
    def test_ranked_partition_spills_packed(self, config, monkeypatch):
        """A cached array that answered one ``get`` holds a ranked
        chunk; its partition still spills as the packed column and
        reloads byte-identically."""
        bodies = []
        encode = spill.encode_block

        def spy(records):
            records = list(records)
            data = encode(records)
            ranked = any(chunk.mask._milestones is not None
                         for _cid, chunk in records)
            bodies.append(([cid for cid, _ in records], ranked,
                           pickle.loads(data)))
            return data

        monkeypatch.setattr(spill, "encode_block", spy)
        rng = np.random.default_rng(6)
        values = rng.random((64, 64))
        valid = rng.random((64, 64)) < 0.1   # SPARSE 16x16 chunks
        # one array fits (4 104 bytes) but not one more partition, so
        # caching a second array spills every partition of the first
        with ClusterContext(num_executors=2, cache_budget_bytes=4_600,
                            **config) as ctx:
            arr = ArrayRDD.from_numpy(ctx, values, (16, 16), valid=valid,
                                      num_partitions=4)
            cached = arr.rdd.persist(StorageLevel.MEMORY_AND_DISK)
            first = sorted(cached.collect(), key=lambda kv: kv[0])
            cell = tuple(int(i) for i in np.argwhere(valid)[0])
            assert arr.get(cell) == values[cell]
            ArrayRDD.from_numpy(ctx, values * 2, (16, 16), valid=valid,
                                num_partitions=4) \
                .rdd.persist(StorageLevel.MEMORY_AND_DISK).collect()
            reread = sorted(cached.collect(), key=lambda kv: kv[0])
            assert ctx.metrics.cache_reloads == 4
        chunk_id = mapper.chunk_id_for_coords(arr.meta, cell)
        [(_ids, ranked, body)] = [entry for entry in bodies
                                  if chunk_id in entry[0]]
        assert ranked
        assert "column" in body
        assert pickle.dumps(reread) == pickle.dumps(first)


class TestOffsetChunkCodec:
    """OffsetArrayChunk offers no column codec: shuffles and spill files
    carry it on the generic pickled path."""

    def _chunks(self, count=4, num_cells=256):
        rng = np.random.default_rng(9)
        out = []
        for _i in range(count):
            size = int(rng.integers(1, 20))
            offsets = rng.choice(num_cells, size=size, replace=False)
            out.append(OffsetArrayChunk(num_cells, offsets,
                                        rng.random(size)))
        return out

    @pytest.mark.parametrize("config", [
        dict(), dict(backend="process"),
    ], ids=["serial", "process"])
    def test_static_matrix_shuffles_and_spills_pickle_identical(
            self, config):
        rng = np.random.default_rng(5)
        dense = rng.random((128, 128))
        # the left half stays dense; the right half's blocks fall below
        # the offset-array threshold and optimize_static re-encodes them
        dense[:, 64:] *= rng.random((128, 64)) < 0.005
        with ClusterContext(num_executors=2, cache_budget_bytes=20_000,
                            **config) as ctx:
            static = SpangleMatrix.from_numpy(
                ctx, dense, (32, 32), num_partitions=4).optimize_static()
            in_memory = sorted(static.array.rdd.collect(),
                               key=lambda kv: kv[0])
            assert {type(chunk) for _cid, chunk in in_memory} \
                == {Chunk, OffsetArrayChunk}
            placed = static.array.rdd.partition_by(HashPartitioner(3)) \
                .persist(StorageLevel.MEMORY_AND_DISK)
            first = sorted(placed.collect(), key=lambda kv: kv[0])
            assert ctx.metrics.cache_spills > 0
            reread = sorted(placed.collect(), key=lambda kv: kv[0])
            assert ctx.metrics.cache_reloads > 0
        assert pickle.dumps(first) == pickle.dumps(in_memory)
        assert pickle.dumps(reread) == pickle.dumps(in_memory)

    def test_shuffle_byte_identity(self):
        def run(columnar):
            ctx = ClusterContext(num_executors=2,
                                 default_parallelism=2)
            chunks = self._chunks(8)
            data = list(enumerate(chunks))
            with shuffle_path(columnar):
                placed = ctx.parallelize(data, 2) \
                    .partition_by(HashPartitioner(2))
                return pickle.dumps(sorted(placed.collect(),
                                           key=lambda kv: kv[0]))

        assert run(columnar=True) == run(columnar=False)
