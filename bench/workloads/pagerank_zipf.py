"""pagerank_zipf — 20 power iterations on a Zipf graph, serial backend.

Fig. 11 of the paper: the decomposed power method over a payload-free
bitmask adjacency. One pass is ``pagerank(graph, max_iterations=20)``.

Why this workload: the payload-free adjacency blocks (offset lists at
this density — a bitmask block only wins above one edge per 64
cells), the blocked CSR spmv of ``matrix.offsets`` and one job launch
per iteration carry the time, and *zero* bytes are shuffled — it is
the workload on which a shuffle or shared-memory optimisation must
show no change. Every pass yields 20 iteration samples, enough for a
p90.
"""

from __future__ import annotations

import numpy as np

from bench import datagen, oracle
from bench.harness import Op, Session

from repro import BitmaskGraph, ClusterContext, pagerank

NAME = "pagerank_zipf"
WHY = ("serial 20-iteration PageRank on a Zipf(1.1) payload-free "
       "adjacency: CSR spmv + per-iteration job launch, zero shuffle "
       "bytes (a shuffle win must not move it)")

ITERATIONS = 20
EXPONENT = 1.1
BLOCK = 8192
PARTITIONS = 8
EXECUTORS = 2


def params(quick: bool) -> dict:
    # half the issue's 200 k / 3.4 M, which does not fit a 30 s run;
    # 13.6 MB of CSR columns is still 7x the L2, so the spmv streams
    if quick:
        return {"vertices": 6_000, "edges": 53_000}
    return {"vertices": 100_000, "edges": 1_700_000}


def generate(seed: int, p: dict) -> dict:
    return {"edges": datagen.zipf_graph(seed, p["vertices"], p["edges"],
                                        EXPONENT)}


class PageRankSession(Session):
    def __init__(self, context, inputs, p):
        self.graph = BitmaskGraph.from_edges(
            context, inputs["edges"], p["vertices"], block_size=BLOCK,
            num_partitions=PARTITIONS, balance="nnz").cache()
        self.graph.num_edges()
        self.iteration_times_s = []

        def run():
            result = pagerank(self.graph, max_iterations=ITERATIONS)
            self.iteration_times_s.extend(result.iteration_times_s)
            return result.ranks

        super().__init__(context, [Op("pagerank20", "ml", run,
                                      task_layer="matrix")])

    def probe_data(self) -> dict:
        blocks = [block for _cid, block in self.graph.rdd.collect()]
        heaviest = max(blocks, key=lambda block: block.edge_count)
        masks = [block.mask.words for block in blocks
                 if hasattr(block, "mask")]
        data = {"csr_offsets": (heaviest.edge_offsets(), BLOCK)}
        if masks:
            data["mask_words"] = np.concatenate(masks)
        return data

    def layer_metrics(self) -> dict:
        times = self.iteration_times_s
        return {"ml.pagerank.iter_median_s": float(np.median(times)),
                "ml.pagerank.iter_p90_s": float(np.percentile(times, 90))}


def start(inputs: dict, p: dict, workdir: str, trace: bool = False,
          backend=None) -> Session:
    context = ClusterContext(num_executors=EXECUTORS,
                             default_parallelism=PARTITIONS, trace=trace)
    return PageRankSession(context, inputs, p)


def expected(inputs: dict, p: dict) -> dict:
    ranks = oracle.pagerank(inputs["edges"], p["vertices"], ITERATIONS)
    return {"pagerank20": oracle.Close(ranks, rtol=0.0,
                                       atol=oracle.PAGERANK_ATOL)}
