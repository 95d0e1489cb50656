"""Connected components over the bitmask adjacency.

A second graph algorithm on :class:`BitmaskGraph` beyond PageRank,
showing the representation is general: label propagation — every vertex
starts with its own id as label and repeatedly adopts the minimum label
among itself and its neighbours. Each round is one ``spmv``-shaped pass
over the graph's cached per-partition edge lists (a min-aggregation
instead of a sum), so nothing shuffles.

The graph is treated as undirected (labels flow both ways across an
edge), matching the usual connected-components semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.graph import BitmaskGraph


@dataclass
class ComponentsResult:
    labels: np.ndarray
    iterations: int
    num_components: int
    sizes: dict = field(default_factory=dict)


def _min_neighbour_labels(graph: BitmaskGraph,
                          labels: np.ndarray) -> np.ndarray:
    """For every vertex: min label over in- AND out-neighbours."""
    n = graph.num_vertices

    def partials(part):
        partial = np.full(n, np.inf)
        for edges in part:
            # labels flow dst <- src and src <- dst (undirected view)
            np.minimum.at(partial, edges.rows, labels.take(edges.cols))
            np.minimum.at(partial, edges.cols, labels.take(edges.rows))
        return [partial]

    pieces = graph.edge_lists().map_partitions(partials).collect()
    out = np.full(n, np.inf)
    for piece in pieces:
        np.minimum(out, piece, out=out)
    return out


def connected_components(graph: BitmaskGraph,
                         max_iterations: int = 100) -> ComponentsResult:
    """Label propagation until a fixed point (or the iteration cap)."""
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.float64)
    iterations = 0
    for _step in range(max_iterations):
        neighbour_min = _min_neighbour_labels(graph, labels)
        new_labels = np.minimum(labels, neighbour_min)
        iterations += 1
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    final = labels.astype(np.int64)
    unique, counts = np.unique(final, return_counts=True)
    return ComponentsResult(
        labels=final,
        iterations=iterations,
        num_components=int(unique.size),
        sizes={int(label): int(count)
               for label, count in zip(unique, counts)},
    )
