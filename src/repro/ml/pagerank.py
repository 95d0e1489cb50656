"""Spangle's customized PageRank (Section VI-B).

The transition matrix A (column-stochastic over out-edges) decomposes as
A = A' ∘ w: A' is the 0/1 connectivity matrix and w_j = 1/outdeg(j).
The power iteration

    p_k = α A' (w ∘ p_{k-1}) + (1 − α)/n

then only ever touches A' — stored once, as blocks that each slice
their partition's one edge list (a bitmask rides along in sparse mode),
so the spmv is one scatter per partition — and two cheap vector
operations. Dangling vertices (out-degree zero) get w = 0,
matching the basic algorithm the paper says it uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ml.graph import BitmaskGraph


@dataclass
class PageRankResult:
    """Ranks plus per-iteration bookkeeping for the Fig. 11 benches."""

    ranks: np.ndarray
    iterations: int
    residual: float
    iteration_times_s: list = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        return sum(self.iteration_times_s)

    def top_k(self, k: int = 10) -> list:
        order = np.argsort(self.ranks)[::-1][:k]
        return [(int(v), float(self.ranks[v])) for v in order]


def pagerank(graph: BitmaskGraph, damping: float = 0.85,
             max_iterations: int = 20,
             tolerance: float = 0.0) -> PageRankResult:
    """Run the decomposed power method on a BitmaskGraph.

    ``tolerance=0`` runs exactly ``max_iterations`` iterations (the
    paper's Fig. 11 setup: 20 fixed iterations); a positive tolerance
    stops early when the L1 residual drops below it.
    """
    n = graph.num_vertices
    with np.errstate(divide="ignore"):
        w = np.where(graph.out_degrees > 0, 1.0 / graph.out_degrees, 0.0)
    p = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    residual = np.inf
    times = []
    iterations = 0
    for _step in range(max_iterations):
        start = time.perf_counter()
        weighted = w * p                      # w ∘ p  (Hadamard)
        spread = graph.spmv(weighted)         # A' (w ∘ p)
        new_p = damping * spread + teleport
        residual = float(np.abs(new_p - p).sum())
        p = new_p
        times.append(time.perf_counter() - start)
        iterations += 1
        if tolerance > 0 and residual < tolerance:
            break
    return PageRankResult(ranks=p, iterations=iterations,
                          residual=residual, iteration_times_s=times)


def pagerank_reference(edges, num_vertices: int, damping: float = 0.85,
                       max_iterations: int = 20) -> np.ndarray:
    """Dense-numpy oracle used by tests (same basic algorithm)."""
    adjacency = np.zeros((num_vertices, num_vertices))
    for src, dst in edges:
        adjacency[dst, src] = 1.0
    out_degrees = adjacency.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        transition = np.where(out_degrees > 0,
                              adjacency / out_degrees, 0.0)
    p = np.full(num_vertices, 1.0 / num_vertices)
    for _step in range(max_iterations):
        p = damping * (transition @ p) + (1.0 - damping) / num_vertices
    return p
