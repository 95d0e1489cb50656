"""End-to-end pipelines across subsystems.

Each test exercises a realistic multi-module flow: ingest → operators →
export; ML over generated data; fault injection mid-pipeline; cost
accounting across a whole workload.
"""

import numpy as np
import pytest

from repro.core import ArrayRDD, SpangleDataset
from repro.core.accumulate import accumulate_axis
from repro.core.reshape import rechunk
from repro.core.stats import describe
from repro.core.updates import merge_cells
from repro.core.windows import regrid
from repro.data import chl_like, scaled_graph, sdss_like
from repro.data.raster import sdss_stack
from repro.engine import ClusterContext
from repro.engine.lineage import FaultInjector
from repro.io.export import array_rdd_to_snf
from repro.io.snf import load_snf_as_dataset, read_snf
from repro.ml import BitmaskGraph, pagerank
from repro.ml.pagerank import pagerank_reference
from repro.queries import SpangleRasterQueries, load_spangle_dataset


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


class TestRasterPipeline:
    def test_snf_roundtrip_through_analysis(self, ctx, tmp_path):
        """Generate → SNF → load → filter → regrid → export → reload."""
        values, valid = chl_like((60, 80, 2), seed=1)
        from repro.io import write_snf

        source = tmp_path / "chl.snf"
        write_snf(source, {"lat": 60, "lon": 80, "time": 2},
                  {"chl": values}, valid)
        dataset = load_snf_as_dataset(ctx, source, (20, 20, 1))
        blooms = dataset.filter("chl", lambda xs: xs > 1.0)
        bloom_array = blooms.evaluate("chl")
        coarse = regrid(bloom_array, (10, 10, 1))
        out = tmp_path / "coarse.snf"
        array_rdd_to_snf(coarse, out)
        _dims, attrs = read_snf(out)
        exported_values, exported_valid = attrs[coarse.meta.attribute]
        assert exported_valid.sum() == coarse.count_valid()
        # spot check one window against numpy
        mask = valid & (np.where(valid, values, 0) > 1.0)
        window = values[:10, :10, 0][mask[:10, :10, 0]]
        if window.size:
            assert exported_values[0, 0, 0] == pytest.approx(
                window.mean())

    def test_query_results_stable_under_rechunk(self, ctx):
        bands = sdss_like(4, shape=(64, 64), objects_per_image=40,
                          seed=2)
        dataset = load_spangle_dataset(ctx, bands, (16, 16, 1))
        queries = SpangleRasterQueries(dataset)
        baseline = queries.q1_aggregation("u")
        rechunked = {
            name: rechunk(arr, (32, 32, 2))
            for name, arr in dataset.attributes.items()
        }
        queries2 = SpangleRasterQueries(SpangleDataset(rechunked))
        assert queries2.q1_aggregation("u") == pytest.approx(baseline)

    def test_update_then_requery(self, ctx):
        bands = sdss_like(2, shape=(32, 32), objects_per_image=20,
                          seed=3)
        values, valid = sdss_stack(bands["u"])
        arr = ArrayRDD.from_numpy(ctx, values, (16, 16, 1),
                                  valid=valid)
        before_count = arr.count_valid()
        empties = np.argwhere(~valid)[:10]
        updates = [(tuple(map(int, c)), 5.0) for c in empties]
        updated = merge_cells(arr, updates)
        assert updated.count_valid() == before_count + 10
        summary = describe(updated)
        assert summary.count == before_count + 10

    def test_accumulate_composes_with_subarray(self, ctx):
        rng = np.random.default_rng(4)
        values = rng.random((32, 32))
        arr = ArrayRDD.from_numpy(ctx, values, (8, 8))
        running = accumulate_axis(arr, 1, "sum")
        window = running.subarray((0, 31), (31, 31))
        got, got_valid = window.collect_dense(0.0)
        # the last column of a row-prefix-sum is the row total
        assert np.allclose(got[:, 31], values.sum(axis=1))


class TestMLPipeline:
    def test_graph_analysis_stack(self, ctx):
        edges, n = scaled_graph("enron", seed=0)
        graph = BitmaskGraph.from_edges(ctx, edges, n,
                                        block_size=512).cache()
        ranks = pagerank(graph, max_iterations=10)
        reference = pagerank_reference(edges, n, max_iterations=10)
        assert np.allclose(ranks.ranks, reference, atol=1e-12)
        assert ranks.top_k(1)[0][0] == int(np.argmax(reference))

    def test_dataset_to_model(self, ctx, tmp_path):
        """Multi-band dataset → derived attribute → training data."""
        from repro.ml import DistributedSamples, LogisticRegression

        bands = sdss_like(4, shape=(64, 64), objects_per_image=60,
                          seed=5)
        dataset = load_spangle_dataset(ctx, bands, (16, 16, 1))
        u_values, u_valid = dataset.evaluate("u").collect_dense(0.0)
        z_values, _ = dataset.evaluate("z").collect_dense(0.0)
        cells = np.argwhere(u_valid)
        features = np.stack([
            u_values[u_valid], z_values[u_valid],
            cells[:, 0] / 64.0, cells[:, 1] / 64.0,
        ], axis=1)
        labels = (z_values[u_valid] > np.median(z_values[u_valid])) \
            .astype(float)
        rows, cols = np.nonzero(features)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, features[rows, cols], labels, 4,
            chunk_rows=128)
        model = LogisticRegression(max_iterations=100,
                                   chunks_per_step=2)
        model.fit(samples)
        assert model.accuracy(samples) > 0.8


class TestFaultToleranceAcrossStack:
    def test_query_survives_block_loss(self, ctx):
        bands = sdss_like(4, shape=(64, 64), objects_per_image=40,
                          seed=6)
        dataset = load_spangle_dataset(ctx, bands, (16, 16, 1))
        u = dataset.attribute("u").materialize()
        expected = u.aggregate("sum")
        injector = FaultInjector(ctx, seed=1)
        assert injector.strike(u.rdd, kill_fraction=0.8) > 0
        assert u.aggregate("sum") == pytest.approx(expected)

    def test_pagerank_survives_block_loss(self, ctx):
        edges, n = scaled_graph("enron", seed=1)
        graph = BitmaskGraph.from_edges(ctx, edges, n,
                                        block_size=512).cache()
        expected = pagerank(graph, max_iterations=5).ranks
        injector = FaultInjector(ctx, seed=2)
        injector.strike(graph.rdd, kill_fraction=0.9)
        recovered = pagerank(graph, max_iterations=5).ranks
        assert np.allclose(recovered, expected)


class TestCostAccounting:
    def test_whole_workload_report(self, ctx):
        values, valid = chl_like((60, 80, 1), seed=7)
        with ctx.measure() as measurement:
            arr = ArrayRDD.from_numpy(ctx, values, (20, 20, 1),
                                      valid=valid)
            arr.filter(lambda xs: xs > 1.0).aggregate("avg")
            regrid(arr, (10, 10, 1)).count_valid()
        report = measurement.report
        assert report.wall_clock_s > 0
        assert report.scheduling_s > 0
        assert report.modeled_s >= report.wall_clock_s
        assert measurement.delta.jobs_run >= 2
