"""Group-by aggregation moves columns, byte-identically to tuples.

``aggregate_by`` and ``window_aggregate`` hand the shuffle one batch of
int64 keys and packed states per partition, fold and merge the
columns, and evaluate the merged states in one call. The per-record
reference (:mod:`tests._reference.aggregates`: one tuple per output
cell, a dict-fold merge, one ``evaluate`` per cell) must build output
chunks that pickle byte for byte the same, on the serial and the
process backend. The mechanism tests check that the builtin path
really ships only batches and never packs or unpacks a tuple.
"""

import pickle
from unittest import mock

import numpy as np
import pytest

from repro.core import ArrayRDD, ChunkMode
from repro.core.aggregates import resolve_aggregator, scalar_aggregator
from repro.core.windows import window_aggregate
from repro.engine import ClusterContext
from repro.engine import rdd as rdd_mod
from repro.engine.batches import RecordBatch
from tests._reference import aggregates as reference

SHAPE = (13, 10, 7)          # ragged last chunk on every axis
CHUNK = (4, 3, 5)
STARTS = (-5, 2, -3)         # negative starts on two axes
NAMES = ("x", "y", "t")
PRODUCT = scalar_aggregator("product", lambda: 1.0,
                            lambda state, v: state * v,
                            lambda a, b: a * b)
AGGREGATORS = ("sum", "count", "min", "max", "avg", PRODUCT)
BACKENDS = [pytest.param({}, id="serial"),
            pytest.param({"backend": "process"}, id="process")]


def _context(backend):
    return ClusterContext(num_executors=2, default_parallelism=3,
                          **backend)


def _cube(ctx, mode, seed=1):
    """A cube with -0.0 payloads and, as a pending plan over it, a
    filter and a map that turns some values into NaN."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=SHAPE)
    values[rng.random(SHAPE) < 0.2] = -0.0
    valid = rng.random(SHAPE) < 0.6
    arr = ArrayRDD.from_numpy(ctx, values, CHUNK, valid=valid, mode=mode,
                              starts=STARTS, dim_names=NAMES)
    nan_payload = arr.filter(lambda v: v > -1.5) \
        .map_values(lambda v: np.where(v > 1.2, np.nan, v))
    return arr, nan_payload


def _same_bytes(columnar, per_record):
    assert columnar.meta == per_record.meta
    assert pickle.dumps(columnar.rdd.collect()) \
        == pickle.dumps(per_record.rdd.collect())


def _check_group_by(arr, dims, name, num_partitions):
    out = arr.aggregate_by(dims, name)
    axes = [NAMES.index(d) for d in dims]
    _same_bytes(out, reference.aggregate_cells(
        arr, out.meta, resolve_aggregator(name), axes, (1,) * len(axes),
        num_partitions))


def _check_window(arr, window, name):
    out = window_aggregate(arr, window, name)
    _same_bytes(out, reference.aggregate_cells(
        arr, out.meta, resolve_aggregator(name), range(len(window)),
        window, arr.rdd.num_partitions))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", list(ChunkMode), ids=lambda m: m.name)
def test_aggregate_by_matches_per_record_reference(backend, mode):
    with _context(backend) as ctx:
        for arr in _cube(ctx, mode):
            for name in AGGREGATORS:
                for dims in (("x", "y"), ("t", "x"), ("y",)):
                    _check_group_by(arr, dims, name,
                                    ctx.default_parallelism)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", list(ChunkMode), ids=lambda m: m.name)
def test_window_aggregate_matches_per_record_reference(backend, mode):
    with _context(backend) as ctx:
        for arr in _cube(ctx, mode, seed=2):
            for name in AGGREGATORS:
                for window in ((3, 2, 7), (1, 4, 2)):
                    _check_window(arr, window, name)


def _forbidden(name):
    def call(*_args, **_kwargs):
        raise AssertionError(f"{name} called on the columnar path")
    return call


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["sum", "avg"])
def test_builtin_group_by_ships_only_batches(backend, name):
    """No tuple is packed, unpacked or probed between the partials and
    the built chunks; the shuffle counters equal the per-record
    path's."""
    rng = np.random.default_rng(3)
    values = rng.normal(size=SHAPE)
    valid = rng.random(SHAPE) < 0.6

    def run(columnar):
        # entered before the context, so forked workers inherit it
        patches = [mock.patch.object(rdd_mod, "pack_int_keys",
                                     _forbidden("pack_int_keys")),
                   mock.patch.object(rdd_mod, "pack_values",
                                     _forbidden("pack_values")),
                   mock.patch.object(RecordBatch, "records",
                                     _forbidden("RecordBatch.records"))]
        for patch in patches if columnar else ():
            patch.start()
        try:
            with _context(backend) as ctx:
                arr = ArrayRDD.from_numpy(ctx, values, CHUNK, valid=valid,
                                          starts=STARTS, dim_names=NAMES)
                before = ctx.metrics.snapshot()
                if columnar:
                    out = arr.aggregate_by(("x", "y"), name)
                else:
                    out = reference.aggregate_cells(
                        arr, arr.aggregate_by(("x", "y"), name).meta,
                        resolve_aggregator(name), (0, 1), (1, 1),
                        ctx.default_parallelism)
                chunks = pickle.dumps(out.rdd.collect())
                return chunks, ctx.metrics.snapshot() - before
        finally:
            for patch in patches if columnar else ():
                patch.stop()

    chunks, delta = run(columnar=True)
    want_chunks, want = run(columnar=False)
    assert chunks == want_chunks
    assert delta.shuffle_batches > 0
    assert delta.shuffle_batch_records == delta.shuffle_records
    assert (delta.shuffle_records, delta.shuffle_bytes) \
        == (want.shuffle_records, want.shuffle_bytes)


def test_window_aggregate_counts_its_plan_once():
    """The partials sink the pending plan; taking the partition count
    must not compile it a second time (counting its rewrites twice)."""
    with _context({}) as ctx:
        arr = ArrayRDD.from_numpy(
            ctx, np.random.default_rng(0).random((32, 32)), (8, 8))
        counted = []
        for aggregate in (lambda a: a.aggregate_by((0, 1), "sum"),
                          lambda a: window_aggregate(a, (1, 1), "sum")):
            before = ctx.metrics.snapshot()
            aggregate((arr * 2.0).subarray((0, 0), (20, 20))).rdd.collect()
            delta = ctx.metrics.snapshot() - before
            counted.append((delta.optimizer_rules_fired,
                            delta.optimizer_chunks_pruned,
                            delta.kernels_fused))
    assert counted[0] == counted[1] == (1, 7, 2)
