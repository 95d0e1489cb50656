"""Pins for the batched plan pass.

The pass runs each kernel once over a whole partition, but a ``map``
or ``filter`` callable still sees exactly one chunk's values per call,
and the fusion counters and ``plan`` span attributes are the ones the
per-chunk pass reported (recorded on the same seeded chain).
"""

import pickle

import numpy as np
import pytest

from repro.core import ArrayRDD, ChunkMode, MaskRDD, SpangleDataset
from repro.engine import ClusterContext
from tests._reference.eager import EagerArray


def banded(seed, shape=(192, 96)):
    """Values in [0, 2) whose validity is dense, sparse and super-sparse
    in three bands of rows, so 32 x 32 chunks land in all three modes."""
    rng = np.random.default_rng(seed)
    rows = np.arange(shape[0])[:, None]
    density = np.where(rows < 64, 0.9, np.where(rows < 128, 0.2, 0.003))
    return rng.random(shape) * 2.0, rng.random(shape) < density


class TestCallableContract:
    """Callables that read their whole input (``xs.mean()``) give the
    eager chain's chunks: each call sees one chunk, never a partition."""

    @pytest.mark.parametrize("chain", [
        pytest.param(lambda a: a.filter(lambda xs: xs > xs.mean()),
                     id="filter"),
        pytest.param(lambda a: a.map_values(lambda xs: xs - xs.mean()),
                     id="map"),
        pytest.param(lambda a: a.subarray((3, 2), (170, 80))
                     .map_values(lambda xs: xs / xs.max())
                     .filter(lambda xs: xs > xs.mean()) * 2.0,
                     id="subarray-map-filter-scalar"),
    ])
    def test_fused_matches_eager_on_multi_chunk_partitions(self, chain):
        ctx = ClusterContext(num_executors=2, default_parallelism=2)
        values, valid = banded(21)
        array = ArrayRDD.from_numpy(ctx, values, (32, 32), valid=valid)
        sizes = [len(part) for part in
                 ctx.run_job(array.rdd, list)]
        assert min(sizes) > 1
        fused = dict(chain(array).rdd.collect())
        eager = chain(EagerArray.of(array)).chunks
        assert fused.keys() == eager.keys()
        for chunk_id, chunk in eager.items():
            got = fused[chunk_id]
            assert got.mode is chunk.mode
            assert np.array_equal(got.payload, chunk.payload)
            assert np.array_equal(got.flat_mask().words,
                                  chunk.flat_mask().words)

    def test_each_call_sees_one_chunk(self):
        ctx = ClusterContext(num_executors=2, default_parallelism=2)
        values, valid = banded(22)
        array = ArrayRDD.from_numpy(ctx, values, (32, 32), valid=valid)
        seen = []

        def spy(xs):
            seen.append(xs.size)
            return xs > xs.mean()

        array.filter(spy).rdd.collect()
        expected = sorted(chunk.valid_count
                          for _cid, chunk in array.rdd.collect())
        assert sorted(seen) == expected


class TestSources:
    @pytest.mark.parametrize("how", ["and", "or"])
    def test_combine_matches_eager(self, how):
        # the right side lacks the chunks its box prunes, so the or-join
        # fills whole chunks with ``fill``
        ctx = ClusterContext(num_executors=2, default_parallelism=2)
        (a, va), (b, vb) = banded(23), banded(24)
        left = ArrayRDD.from_numpy(ctx, a, (32, 32), valid=va)
        right = ArrayRDD.from_numpy(ctx, b, (32, 32), valid=vb) \
            .subarray((40, 0), (150, 60)).materialize()
        fused = dict(left.combine(right, np.subtract, how=how, fill=0.5)
                     .rdd.collect())
        eager = EagerArray.of(left).combine(
            EagerArray.of(right), np.subtract, how=how, fill=0.5).chunks
        assert fused.keys() == eager.keys()
        for chunk_id, chunk in eager.items():
            assert pickle.dumps(fused[chunk_id]) == pickle.dumps(chunk)

    def test_and_join_computes_only_shared_cells(self):
        """Fig. 5: the op runs once per chunk, on the cells valid on
        both sides, never on a null pair."""
        ctx = ClusterContext(num_executors=2, default_parallelism=2)
        (a, va), (b, vb) = banded(26), banded(27)
        left = ArrayRDD.from_numpy(ctx, a, (32, 32), valid=va)
        right = ArrayRDD.from_numpy(ctx, b, (32, 32), valid=vb)
        sizes = []

        def spy(x, y):
            sizes.append(x.size)
            return x * y

        out = left.combine(right, spy, how="and")
        assert out.count_valid() == int((va & vb).sum())
        shared = ({cid for cid, _c in left.rdd.collect()}
                  & {cid for cid, _c in right.rdd.collect()})
        assert len(sizes) == len(shared)
        assert sum(sizes) == int((va & vb).sum())

    def test_mask_apply_passes_whole_chunks_through(self):
        # forced DENSE at low density: a rebuilt chunk would re-choose
        # its mode, an untouched one keeps it and stays the same object
        ctx = ClusterContext(num_executors=2, default_parallelism=2)
        values, valid = banded(25)
        array = ArrayRDD.from_numpy(ctx, values, (32, 32), valid=valid,
                                    mode=ChunkMode.DENSE)
        applied = dict(MaskRDD.from_array_rdd(array).apply_to(array)
                       .rdd.collect())
        original = dict(array.rdd.collect())
        assert applied.keys() == original.keys()
        assert all(applied[cid] is chunk for cid, chunk in original.items())


#: the chain's counters and plan spans as the per-chunk pass reported
#: them: (pipeline, partition, attributes), sorted
RECORDED_COUNTERS = {"fused_chunks_avoided": 123, "chunks_repacked": 10,
                     "kernels_fused": 16}
RECORDED_SPANS = [
    ("fused[apply_mask→drop_empty→filter]", 0,
     {"chunk_builds_avoided": 6, "chunk_ids": [0, 3, 6, 9, 12, 15],
      "chunks_in": 6, "chunks_out": 6, "chunks_sparse": 6,
      "payload_bytes_sparse": 9064}),
    ("fused[apply_mask→drop_empty→filter]", 1,
     {"chunk_builds_avoided": 3, "chunk_ids": [1, 7, 13], "chunks_in": 3,
      "chunks_out": 3, "chunks_sparse": 3, "payload_bytes_sparse": 8992}),
    ("fused[apply_mask→drop_empty→filter]", 2,
     {"chunk_builds_avoided": 3, "chunk_ids": [2, 8, 14], "chunks_in": 3,
      "chunks_out": 3, "chunks_sparse": 3, "payload_bytes_sparse": 488}),
    ("fused[combine_and→drop_empty→filter]", 0,
     {"chunk_builds_avoided": 6, "chunk_ids": [0, 3, 6, 9, 12, 15],
      "chunks_dense": 3, "chunks_in": 6, "chunks_out": 6,
      "chunks_sparse": 3, "payload_bytes_dense": 24576,
      "payload_bytes_sparse": 672}),
    ("fused[combine_and→drop_empty→filter]", 1,
     {"chunk_builds_avoided": 5, "chunk_ids": [1, 4, 7, 13, 16],
      "chunks_dense": 3, "chunks_in": 5, "chunks_out": 3,
      "payload_bytes_dense": 24576}),
    ("fused[combine_and→drop_empty→filter]", 2,
     {"chunk_builds_avoided": 5, "chunk_ids": [2, 5, 8, 11, 14],
      "chunks_in": 5, "chunks_out": 3, "chunks_sparse": 3,
      "payload_bytes_sparse": 952}),
    ("fused[combine_or→drop_empty→scalar_mul]", 0,
     {"chunk_builds_avoided": 6, "chunk_ids": [0, 3, 6, 9, 12, 15],
      "chunks_dense": 3, "chunks_in": 6, "chunks_out": 6,
      "chunks_sparse": 3, "payload_bytes_dense": 24576,
      "payload_bytes_sparse": 8768}),
    ("fused[combine_or→drop_empty→scalar_mul]", 1,
     {"chunk_builds_avoided": 6, "chunk_ids": [1, 4, 7, 10, 13, 16],
      "chunks_dense": 3, "chunks_in": 6, "chunks_out": 6,
      "chunks_sparse": 3, "payload_bytes_dense": 24576,
      "payload_bytes_sparse": 152}),
    ("fused[combine_or→drop_empty→scalar_mul]", 2,
     {"chunk_builds_avoided": 6, "chunk_ids": [2, 5, 8, 11, 14, 17],
      "chunks_in": 6, "chunks_out": 6, "chunks_sparse": 6,
      "payload_bytes_sparse": 9112}),
    ("fused[map→repack]", 0,
     {"chunk_builds_avoided": 3, "chunk_ids": [0, 3, 6, 9, 12, 15],
      "chunks_dense": 3, "chunks_in": 6, "chunks_out": 6,
      "chunks_repacked": 3, "chunks_sparse": 3,
      "payload_bytes_dense": 24576, "payload_bytes_sparse": 4752}),
    ("fused[map→repack]", 1,
     {"chunk_builds_avoided": 2, "chunk_ids": [1, 4, 7, 13, 16],
      "chunks_dense": 3, "chunks_in": 5, "chunks_out": 5,
      "chunks_repacked": 2, "chunks_sparse": 1, "chunks_super_sparse": 1,
      "payload_bytes_dense": 24576, "payload_bytes_sparse": 40,
      "payload_bytes_super_sparse": 8}),
    ("fused[map→repack]", 2,
     {"chunk_builds_avoided": 5, "chunk_ids": [2, 5, 8, 11, 14],
      "chunks_in": 5, "chunks_out": 5, "chunks_repacked": 5,
      "chunks_sparse": 3, "chunks_super_sparse": 2,
      "payload_bytes_sparse": 5112, "payload_bytes_super_sparse": 40}),
    ("fused[mask_and→fold[mul+add]→filter→map→repack]", 0,
     {"chunk_builds_avoided": 23, "chunk_ids": [0, 3, 6, 9, 12, 15],
      "chunks_dense": 2, "chunks_in": 6, "chunks_out": 6,
      "chunks_sparse": 4, "payload_bytes_dense": 16384,
      "payload_bytes_sparse": 6608}),
    ("fused[mask_and→fold[mul+add]→filter→map→repack]", 1,
     {"chunk_builds_avoided": 21, "chunk_ids": [1, 4, 7, 10, 13, 16],
      "chunks_dense": 2, "chunks_in": 6, "chunks_out": 6,
      "chunks_sparse": 2, "chunks_super_sparse": 2,
      "payload_bytes_dense": 16384, "payload_bytes_sparse": 3472,
      "payload_bytes_super_sparse": 40}),
    ("fused[mask_and→fold[mul+add]→filter→map→repack]", 2,
     {"chunk_builds_avoided": 23, "chunk_ids": [2, 5, 8, 11, 14, 17],
      "chunks_in": 6, "chunks_out": 4, "chunks_sparse": 3,
      "chunks_super_sparse": 1, "payload_bytes_sparse": 3400,
      "payload_bytes_super_sparse": 16}),
]


def test_counters_and_plan_spans_match_recorded():
    ctx = ClusterContext(num_executors=2, default_parallelism=3, trace=True)
    (a, va), (b, vb) = banded(11), banded(12)
    A = ArrayRDD.from_numpy(ctx, a, (32, 32), valid=va, attribute="a")
    B = ArrayRDD.from_numpy(ctx, b, (32, 32), valid=vb, attribute="b")
    D = ArrayRDD.from_numpy(ctx, b, (32, 32), valid=vb,
                            mode=ChunkMode.DENSE)
    before = ctx.metrics.snapshot()
    chains = [
        D.map_values(np.negative).repack(),
        ((A * 1.5 + 0.25).subarray((3, 2), (170, 80))
         .filter(lambda xs: xs > 0.6).map_values(np.sqrt).repack()),
        (SpangleDataset({"a": A, "b": B}).filter("a", lambda xs: xs > 0.5)
         .filter("b", lambda xs: xs < 1.5).evaluate("a")
         .filter(lambda xs: xs > 0.8)),
        A.combine(B, np.add, how="and").filter(lambda xs: xs > 1.0),
        A.combine(B, np.subtract, how="or", fill=0.5) * 2.0,
    ]
    for chain in chains:
        chain.rdd.collect()
    delta = ctx.metrics.snapshot() - before
    assert {name: getattr(delta, name) for name in RECORDED_COUNTERS} \
        == RECORDED_COUNTERS
    keep = ("chunks_", "payload_bytes_", "chunk_ids",
            "chunk_builds_avoided")
    spans = sorted(
        ((span.name, span.attrs["partition"],
          {key: value for key, value in span.attrs.items()
           if key.startswith(keep)})
         for span in ctx.tracer.spans() if span.kind == "plan"),
        key=lambda row: row[:2])
    assert spans == RECORDED_SPANS
