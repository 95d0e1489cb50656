"""Tests for BitmaskGraph and the decomposed PageRank."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ClusterContext
from repro.errors import ArrayError, ShapeMismatchError
from repro.ml import BitmaskGraph, pagerank
from repro.ml.pagerank import pagerank_reference


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


def random_edges(n, m, seed=0):
    rng = np.random.default_rng(seed)
    edges = np.stack([rng.integers(0, n, m), rng.integers(0, n, m)],
                     axis=1)
    return np.unique(edges, axis=0)


class TestBitmaskGraph:
    def test_edges_roundtrip(self, ctx):
        edges = random_edges(120, 700, seed=1)
        g = BitmaskGraph.from_edges(ctx, edges, 120, block_size=32)
        assert g.num_edges() == len(edges)
        dense = g.to_dense()
        for src, dst in edges:
            assert dense[dst, src]
        assert dense.sum() == len(edges)

    def test_duplicate_edges_collapse(self, ctx):
        edges = [(0, 1), (0, 1), (1, 2)]
        g = BitmaskGraph.from_edges(ctx, edges, 3, block_size=4)
        assert g.num_edges() == 2
        # out-degree counts the raw edge list (weights), as the paper's
        # transition construction does
        assert g.out_degrees[0] == 2.0

    def test_vertex_range_validation(self, ctx):
        with pytest.raises(ArrayError):
            BitmaskGraph.from_edges(ctx, [(0, 5)], 3)

    def test_edge_shape_validation(self, ctx):
        with pytest.raises(ShapeMismatchError):
            BitmaskGraph.from_edges(ctx, np.zeros((3, 3)), 10)

    def test_bad_mode(self, ctx):
        with pytest.raises(ArrayError):
            BitmaskGraph.from_edges(ctx, [(0, 1)], 2, mode="dense")

    def test_spmv_matches_dense(self, ctx):
        edges = random_edges(90, 400, seed=2)
        g = BitmaskGraph.from_edges(ctx, edges, 90, block_size=32)
        dense = g.to_dense().astype(np.float64)
        x = np.random.default_rng(3).random(90)
        assert np.allclose(g.spmv(x), dense @ x)

    def test_spmv_length_check(self, ctx):
        g = BitmaskGraph.from_edges(ctx, [(0, 1)], 4)
        with pytest.raises(ShapeMismatchError):
            g.spmv(np.ones(5))

    def test_modes_agree(self, ctx):
        edges = random_edges(100, 300, seed=4)
        x = np.random.default_rng(5).random(100)
        results = []
        for mode in ("auto", "sparse", "super_sparse"):
            g = BitmaskGraph.from_edges(ctx, edges, 100, block_size=32,
                                        mode=mode)
            results.append(g.spmv(x))
        assert np.allclose(results[0], results[1])
        assert np.allclose(results[0], results[2])

    def test_one_bit_per_edge_memory(self, ctx):
        # dense-ish block: bitmask storage ~ cells/8 bytes, far below
        # 8 bytes per edge
        n = 256
        edges = [(i, j) for i in range(n) for j in range(0, n, 2)]
        g = BitmaskGraph.from_edges(ctx, edges, n, block_size=256,
                                    mode="sparse")
        assert g.memory_bytes() == n * n // 8
        assert g.memory_bytes() < len(edges) * 8

    def test_super_sparse_smaller_when_few_edges(self, ctx):
        edges = [(0, 1), (500, 900)]
        sparse = BitmaskGraph.from_edges(ctx, edges, 1000,
                                         block_size=1000, mode="sparse")
        hyper = BitmaskGraph.from_edges(ctx, edges, 1000,
                                        block_size=1000,
                                        mode="super_sparse")
        assert hyper.memory_bytes() < sparse.memory_bytes()


class TestPageRank:
    def test_matches_reference(self, ctx):
        edges = random_edges(150, 900, seed=6)
        g = BitmaskGraph.from_edges(ctx, edges, 150, block_size=64)
        result = pagerank(g, max_iterations=20)
        reference = pagerank_reference(edges, 150, max_iterations=20)
        assert np.allclose(result.ranks, reference, atol=1e-12)
        assert result.iterations == 20
        assert len(result.iteration_times_s) == 20

    def test_ranks_sum_reasonable(self, ctx):
        edges = random_edges(100, 500, seed=7)
        g = BitmaskGraph.from_edges(ctx, edges, 100)
        ranks = pagerank(g, max_iterations=30).ranks
        # with dangling mass leaking, sum is <= 1 but bounded below
        assert 0.1 < ranks.sum() <= 1.0 + 1e-9
        assert (ranks > 0).all()

    def test_hub_ranks_higher(self, ctx):
        # star graph: everything points at vertex 0
        edges = [(i, 0) for i in range(1, 50)]
        g = BitmaskGraph.from_edges(ctx, edges, 50)
        ranks = pagerank(g, max_iterations=20).ranks
        assert ranks[0] == ranks.max()
        assert ranks[0] > 10 * ranks[1]

    def test_early_stop_with_tolerance(self, ctx):
        edges = [(i, (i + 1) % 20) for i in range(20)]
        g = BitmaskGraph.from_edges(ctx, edges, 20)
        result = pagerank(g, max_iterations=100, tolerance=1e-10)
        assert result.iterations < 100
        assert result.residual < 1e-10

    def test_top_k(self, ctx):
        edges = [(i, 0) for i in range(1, 10)]
        g = BitmaskGraph.from_edges(ctx, edges, 10)
        result = pagerank(g, max_iterations=10)
        top = result.top_k(3)
        assert top[0][0] == 0
        assert len(top) == 3

    def test_dangling_vertices_handled(self, ctx):
        # vertex 2 has no out-edges: w_2 = 0 and nothing propagates
        edges = [(0, 1), (1, 2)]
        g = BitmaskGraph.from_edges(ctx, edges, 3)
        ranks = pagerank(g, max_iterations=10).ranks
        reference = pagerank_reference(edges, 3, max_iterations=10)
        assert np.allclose(ranks, reference)


class TestSparseKernels:
    """Blocks as slices of one edge list per partition, behind ``spmv``."""

    def _graph(self, ctx, balance="hash"):
        rng = np.random.default_rng(17)
        edges = np.unique(rng.integers(0, 256, size=(2000, 2)),
                          axis=0)
        return BitmaskGraph.from_edges(ctx, edges, 256, block_size=64,
                                       balance=balance).cache(), edges

    def test_nnz_balanced_graph_same_ranks_per_placement(self, ctx):
        # placement fixes the order driver-side partials sum in, so
        # identity is asserted per graph; across placements the ranks
        # agree to float tolerance
        hashed, _edges = self._graph(ctx, balance="hash")
        balanced, _edges = self._graph(ctx, balance="nnz")
        r_hash = pagerank(hashed, max_iterations=10)
        r_nnz = pagerank(balanced, max_iterations=10)
        assert np.allclose(r_hash.ranks, r_nnz.ranks, atol=1e-12)
        assert balanced.to_dense().tobytes() \
            == hashed.to_dense().tobytes()

    def test_unknown_balance_rejected(self, ctx):
        with pytest.raises(ArrayError):
            BitmaskGraph.from_edges(ctx, [(0, 1)], 4, balance="lpt")

    def test_ranks_byte_identical_across_backends(self):
        edges = random_edges(300, 2500, seed=8)
        reference = pagerank_reference(edges, 300, max_iterations=15)
        ranks = []
        for kwargs in ({"num_executors": 1},
                       {"num_executors": 4, "use_threads": True},
                       {"num_executors": 2, "backend": "process"}):
            with ClusterContext(**kwargs) as context:
                graph = BitmaskGraph.from_edges(
                    context, edges, 300, block_size=70,
                    num_partitions=4, balance="nnz").cache()
                ranks.append(pagerank(graph, max_iterations=15).ranks)
        assert ranks[0].tobytes() == ranks[1].tobytes()
        assert ranks[0].tobytes() == ranks[2].tobytes()
        assert np.allclose(ranks[0], reference, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("mode", ["super_sparse", "sparse"])
    def test_cache_holds_one_copy(self, ctx, mode):
        # blocks slice one edge list per partition: the cache holds the
        # paper form (offsets or mask), plus 8 B per edge for a mask
        # block's slice, plus 16 B of (cid, block) framing per record
        rng = np.random.default_rng(17)
        edges = rng.integers(0, 256, size=(2000, 2))
        graph = BitmaskGraph.from_edges(ctx, edges, 256, block_size=64,
                                        mode=mode).cache()
        pagerank(graph, max_iterations=2)
        rdd = graph.rdd
        assert ctx.cache.block_count() == rdd.num_partitions
        assert all(ctx.cache.contains(rdd.rdd_id, index)
                   for index in range(rdd.num_partitions))
        blocks = rdd.collect()
        slices = 8 * graph.num_edges() if mode == "sparse" else 0
        excess = ctx.cache.used_bytes() - graph.memory_bytes() - slices
        assert 0 <= excess <= 16 * len(blocks)
        for _cid, block in blocks:
            if mode == "sparse":
                assert block.mask.indices().tobytes() \
                    == block.edge_offsets().tobytes()
            else:
                assert not hasattr(block, "mask")

    @pytest.mark.parametrize("config", [dict(), dict(backend="process")],
                             ids=["serial", "process"])
    def test_spmv_is_sequential_scatter_across_backends(self, config):
        # the oracle: distinct edges ordered partition -> block ->
        # offset, one np.add.at per partition, partials summed in
        # partition order
        rng = np.random.default_rng(23)
        n, side = 300, 70
        edges = rng.integers(0, n, size=(4000, 2))
        x = rng.random(n)
        with ClusterContext(num_executors=2, **config) as context:
            graph = BitmaskGraph.from_edges(
                context, edges, n, block_size=side, num_partitions=4,
                balance="nnz").cache()
            spread = graph.spmv(x)
            partition = graph.rdd.partitioner.partition
        src, dst = np.unique(edges, axis=0).T
        grid = -(-n // side)
        cids = dst // side + src // side * grid
        offsets = dst % side + src % side * side
        parts = np.array([partition(int(cid)) for cid in cids])
        order = np.lexsort((offsets, cids, parts))
        expected = np.zeros(n)
        for part in range(4):
            picked = order[parts[order] == part]
            partial = np.zeros(n)
            np.add.at(partial, dst[picked], x[src[picked]])
            expected += partial
        assert spread.tobytes() == expected.tobytes()

    def test_cached_partition_pickles_with_one_edge_list(self, ctx):
        graph, _edges = self._graph(ctx)
        graph.num_edges()
        rdd = graph.rdd
        shared = 0
        for index in range(rdd.num_partitions):
            found, part = ctx.cache.get(rdd.rdd_id, index)
            assert found
            clone = pickle.loads(pickle.dumps(part))
            lists = {id(block.edges) for _cid, block in clone}
            assert len(lists) <= 1
            for _cid, block in clone:
                assert block.edges.rows.dtype == np.int32
                assert block.edges.rows.size \
                    == sum(b.edge_count for _c, b in clone)
            shared += len(clone) > 1
        assert shared   # some partition really holds several blocks

    @pytest.mark.parametrize("edges", [[], np.zeros((0, 2))])
    def test_empty_edge_list(self, ctx, edges):
        graph = BitmaskGraph.from_edges(ctx, edges, 5)
        assert graph.num_edges() == 0
        assert graph.spmv(np.ones(5)).tobytes() == np.zeros(5).tobytes()
        ranks = pagerank(graph, max_iterations=3).ranks
        # teleport only: damping times a zero spread adds nothing
        assert np.array_equal(ranks, np.full(5, (1.0 - 0.85) / 5))


@st.composite
def graphs(draw):
    """``(n, block, edges, partitions)`` with ragged last blocks,
    self-loops, duplicate edges and partitions left without blocks."""
    n = draw(st.integers(1, 40))
    block = draw(st.integers(1, n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=80))
    loop = draw(vertex)
    edges += [(loop, loop)] + edges[:3]       # a self-loop + duplicates
    return n, block, edges, draw(st.integers(1, 8))


@settings(max_examples=120, deadline=None)
@given(case=graphs(),
       mode=st.sampled_from(["auto", "sparse", "super_sparse"]),
       balance=st.sampled_from(["hash", "nnz"]),
       seed=st.integers(0, 2**16))
@example(case=(10, 3, [(9, 9), (0, 9), (0, 9)], 8), mode="auto",
         balance="hash", seed=0)
def test_spmv_matches_dense_oracle(case, mode, balance, seed):
    n, block, edges, partitions = case
    expected = np.zeros((n, n), dtype=bool)
    for src, dst in edges:
        expected[dst, src] = True
    x = np.random.default_rng(seed).random(n)
    with ClusterContext(num_executors=2) as context:
        graph = BitmaskGraph.from_edges(
            context, edges, n, block_size=block,
            num_partitions=partitions, mode=mode, balance=balance)
        dense = graph.to_dense()
        spread = graph.spmv(x)
    assert dense.tobytes() == expected.tobytes()
    assert np.allclose(spread, dense.astype(float) @ x,
                       rtol=0.0, atol=1e-12)
