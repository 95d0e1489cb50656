"""Tests for label-propagation connected components on BitmaskGraph."""

import numpy as np
import pytest

from repro.engine import ClusterContext
from repro.ml import BitmaskGraph
from repro.ml.components import connected_components


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


def make_graph(ctx, edges, n, block=16):
    return BitmaskGraph.from_edges(ctx, edges, n, block_size=block)


class TestConnectedComponents:
    def test_two_rings(self, ctx):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        result = connected_components(make_graph(ctx, edges, 10))
        assert result.num_components == 2
        assert len(set(result.labels[:5])) == 1
        assert len(set(result.labels[5:])) == 1
        assert result.labels[0] != result.labels[5]
        assert result.sizes == {0: 5, 5: 5}

    def test_isolated_vertices_are_singletons(self, ctx):
        edges = [(0, 1)]
        result = connected_components(make_graph(ctx, edges, 4))
        assert result.num_components == 3
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] != result.labels[3]

    def test_direction_ignored(self, ctx):
        # a one-way chain still forms one component
        edges = [(i, i + 1) for i in range(9)]
        result = connected_components(make_graph(ctx, edges, 10))
        assert result.num_components == 1
        assert (result.labels == 0).all()

    def test_matches_networkx(self, ctx):
        import networkx as nx

        rng = np.random.default_rng(0)
        n = 120
        edges = np.unique(
            np.stack([rng.integers(0, n, 150),
                      rng.integers(0, n, 150)], axis=1), axis=0)
        edges = edges[edges[:, 0] != edges[:, 1]]
        result = connected_components(
            make_graph(ctx, edges, n, block=32))

        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(map(tuple, edges))
        reference = list(nx.connected_components(graph))
        assert result.num_components == len(reference)
        for component in reference:
            labels = {result.labels[v] for v in component}
            assert len(labels) == 1

    def test_label_is_component_minimum(self, ctx):
        edges = [(7, 3), (3, 9), (9, 7)]
        result = connected_components(make_graph(ctx, edges, 10))
        for v in (3, 7, 9):
            assert result.labels[v] == 3

    def test_converges_within_diameter_rounds(self, ctx):
        # a path of length 20 needs ~20 rounds; the cap must not bite
        edges = [(i, i + 1) for i in range(20)]
        result = connected_components(make_graph(ctx, edges, 21),
                                      max_iterations=50)
        assert result.num_components == 1
        assert result.iterations <= 25

    def test_labels_byte_identical_to_edge_oracle(self):
        # 45 vertices in blocks of 8 leave a ragged last block row and
        # column; 40 partitions outnumber the non-empty blocks
        rng = np.random.default_rng(3)
        n = 45
        edges = rng.integers(0, n, size=(30, 2))
        edges = np.concatenate([edges, [(44, 44), (40, 2)]])
        with ClusterContext(num_executors=2) as context:
            graph = BitmaskGraph.from_edges(context, edges, n,
                                            block_size=8,
                                            num_partitions=40)
            result = connected_components(graph)

        labels = np.arange(n, dtype=np.float64)
        src, dst = edges[:, 0], edges[:, 1]
        iterations = 0
        while True:
            neighbour = np.full(n, np.inf)
            np.minimum.at(neighbour, dst, labels[src])
            np.minimum.at(neighbour, src, labels[dst])
            new_labels = np.minimum(labels, neighbour)
            iterations += 1
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        assert result.labels.tobytes() == labels.astype(np.int64).tobytes()
        assert result.iterations == iterations
