"""The Chunk value codec for the columnar shuffle (core ↔ engine)."""

import pickle

import numpy as np
import pytest

from repro.core import ArrayMetadata, Chunk, ChunkMode  # registers codec
from repro.core.chunk_codec import ChunkValues, probe_chunks
from repro.core.ingest import array_rdd_from_records
from repro.engine import ClusterContext, HashPartitioner
from repro.engine.batches import pack_values
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

    def test_milestone_cache_refuses(self):
        chunk = _chunk(ChunkMode.SPARSE, seed=2)
        chunk.mask.rank(100)  # populates the milestone cache
        assert probe_chunks([chunk]) is None

    def test_hierarchical_milestone_cache_refuses(self):
        chunk = _chunk(ChunkMode.SUPER_SPARSE, seed=3)
        chunk.mask.rank(100)  # ranks the upper mask
        assert probe_chunks([chunk]) is None

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
                return out, ctx.metrics.snapshot()

        columnar_out, snap = run(True)
        generic_out, _ = run(False)
        assert pickle.dumps(columnar_out) == pickle.dumps(generic_out)
        # the (offset, value) cell pairs ride packed batches
        assert snap.shuffle_batches > 0


class TestOffsetChunkCodec:
    """The OffsetArrayChunk columnar codec (matrix ↔ core)."""

    def _chunks(self, count=4, num_cells=256):
        from repro.matrix.offsets import OffsetArrayChunk

        rng = np.random.default_rng(9)
        out = []
        for _i in range(count):
            size = int(rng.integers(1, 20))
            offsets = rng.choice(num_cells, size=size, replace=False)
            out.append(OffsetArrayChunk(num_cells, offsets,
                                        rng.random(size)))
        return out

    def test_roundtrip_pickle_identical(self):
        from repro.core.chunk_codec import OffsetChunkValues

        chunks = self._chunks()
        packed = pack_values(chunks)
        assert isinstance(packed, OffsetChunkValues)
        assert pickle.dumps(packed.unpack()) == pickle.dumps(chunks)

    def test_gather_matches_fancy_select(self):
        chunks = self._chunks()
        packed = pack_values(chunks)
        idx = np.array([3, 1, 0])
        assert pickle.dumps(packed.gather(idx).unpack()) \
            == pickle.dumps([chunks[i] for i in idx])

    def test_mixed_with_plain_chunks_refuses(self):
        from repro.core.chunk_codec import probe_offset_chunks

        chunks = self._chunks(2)
        mixed = [chunks[0], _chunk(ChunkMode.SPARSE)]
        assert probe_offset_chunks(mixed) is None
        assert probe_offset_chunks([_chunk(ChunkMode.SPARSE)]) is None

    def test_byte_limit_refuses_big_chunks(self):
        from repro.core.chunk_codec import (
            probe_offset_chunks,
            probe_offset_chunks_for_spill,
        )
        from repro.matrix.offsets import OffsetArrayChunk

        cells = 2048
        big = [OffsetArrayChunk(cells, np.arange(cells),
                                np.random.default_rng(1).random(cells))
               for _i in range(2)]
        assert probe_offset_chunks(big) is None  # ships by reference
        assert probe_offset_chunks_for_spill(big) is not None

    def test_object_payload_refuses(self):
        from repro.core.chunk_codec import probe_offset_chunks
        from repro.matrix.offsets import OffsetArrayChunk

        chunk = OffsetArrayChunk(
            8, np.array([1, 3]), np.array([object(), object()]))
        assert probe_offset_chunks([chunk]) is None

    def test_shuffle_byte_identity(self):
        from repro.matrix.offsets import OffsetArrayChunk  # noqa: F401

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
