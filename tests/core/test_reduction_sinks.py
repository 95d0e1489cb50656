"""Reductions as the last stage of the fused plan pass.

``aggregate``, ``count_valid`` and the raster window partials compile
the array's pending plan with themselves as its sink: they read each
partition's batch where the pass would encode chunks. Checked here:

- every answer against dense numpy on the same cube, with the chunks
  forced DENSE, SPARSE and SUPER_SPARSE and with one partition mixing
  all three, negative ``starts``, a box and windows that do not line
  up with the chunks;
- bit identity with the per-chunk forms they replace (a fold over each
  compiled chunk's ``values()``, the per-chunk window partials), and
  serial == process pickles;
- that an identity plan decodes no offsets, that a persisted compiled
  RDD is read rather than recomputed, and the ``plan`` spans and
  ``fused_chunks_avoided`` of sink passes.
"""

import pickle

import numpy as np
import pytest

from repro.core import ArrayRDD, ChunkMode, SpangleDataset
from repro.core import plan as plan_module
from repro.core.aggregates import resolve_aggregator, scalar_aggregator
from repro.engine import ClusterContext
from repro.queries.ssdb import _merge_windows, _window_partials
from tests._reference.windows import window_partials

SHAPE = (37, 29, 3)             # ragged against the 16 x 16 chunks
CHUNK = (16, 16, 1)
STARTS = (-7, -13, -2)
BOX = ((-3, -9, -2), (21, 9, -1))   # global corners, not chunk-aligned
WINDOWS = (5, 16)               # 16 is the chunk width, offset by STARTS


def sum_of_squares():
    return scalar_aggregator("sum_sq", lambda: 0.0,
                             lambda state, value: state + value * value,
                             lambda a, b: a + b)


AGGREGATORS = ["sum", "count", "min", "max", "avg", "sum_sq"]


def aggregator(name):
    return sum_of_squares() if name == "sum_sq" else \
        resolve_aggregator(name)


MODES = [pytest.param(mode, id=mode.value) for mode in ChunkMode] + [
    pytest.param("mixed", id="mixed")]


def cube(seed=0, density=0.45):
    rng = np.random.default_rng(seed)
    return rng.random(SHAPE) * 4.0, rng.random(SHAPE) < density


def make_array(ctx, values, valid, mode):
    """``mode`` forces every chunk; ``"mixed"`` cycles the three modes
    through one partition."""
    if mode != "mixed":
        return ArrayRDD.from_numpy(ctx, values, CHUNK, valid=valid,
                                   mode=mode, starts=STARTS)
    auto = ArrayRDD.from_numpy(ctx, values, CHUNK, valid=valid,
                               starts=STARTS)
    modes = list(ChunkMode)
    records = [(cid, chunk.convert(modes[cid % 3]))
               for cid, chunk in auto.rdd.collect()]
    return ArrayRDD.from_chunks(ctx, records, auto.meta, num_partitions=1)


def in_box():
    (x0, y0, t0), (x1, y1, t1) = BOX
    sx, sy, st = STARTS
    inside = np.zeros(SHAPE, dtype=bool)
    inside[x0 - sx:x1 - sx + 1, y0 - sy:y1 - sy + 1,
           t0 - st:t1 - st + 1] = True
    return inside


def plans(array, values, valid):
    """``(name, array, dense values, dense validity)``: the same cube
    through an identity plan, a box, a filter chain with scalar
    arithmetic, a MaskRDD filter and a filter that leaves nothing."""
    inside = in_box()
    scaled = values * 1.5 + 0.25
    dataset = SpangleDataset({"u": array}).filter("u", lambda xs: xs > 2.0)
    return [
        ("identity", array, values, valid),
        ("box", array.subarray(*BOX), values, valid & inside),
        ("scaled_filter",
         (array * 1.5 + 0.25).filter(lambda xs: xs > 2.0).subarray(*BOX),
         scaled, valid & inside & (scaled > 2.0)),
        ("mask_rdd", dataset.evaluate("u"), values, valid & (values > 2.0)),
        ("empty", array.filter(lambda xs: xs > 99.0), values,
         np.zeros(SHAPE, dtype=bool)),
    ]


def window_oracle(values, valid, window):
    """``{(image, wr, wc): (count, sum)}`` over global coordinates."""
    out = {}
    for x, y, t in zip(*np.nonzero(valid)):
        key = (int(t) + STARTS[2], (int(x) + STARTS[0]) // window,
               (int(y) + STARTS[1]) // window)
        count, total = out.get(key, (0, 0.0))
        out[key] = (count + 1, total + float(values[x, y, t]))
    return out


def merged_windows(array, window):
    return _merge_windows(_window_partials(array, window).collect(),
                          array.meta, window)


def per_chunk_aggregate(array, agg):
    """What ``aggregate`` computed before it was a sink: a fold of each
    compiled chunk's ``values()`` per partition, merged in order."""
    def fold(part):
        state = agg.initialize()
        for _cid, chunk in part:
            state = agg.accumulate(state, chunk.values())
        return [state]

    merged = agg.initialize()
    for state in array.rdd.map_partitions(fold).collect():
        merged = agg.merge(merged, state)
    return agg.evaluate(merged)


def results(array):
    """Every sink's answer on ``array``, for pickle comparison."""
    out = {name: array.aggregate(aggregator(name)) for name in AGGREGATORS}
    out["count_valid"] = array.count_valid()
    for window in WINDOWS:
        out[f"windows_{window}"] = merged_windows(array, window)
    return out


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=2, default_parallelism=3)


class TestDenseOracle:
    @pytest.mark.parametrize("mode", MODES)
    def test_aggregates_and_count(self, ctx, mode):
        values, valid = cube(1)
        array = make_array(ctx, values, valid, mode)
        for name, got, dense, passing in plans(array, values, valid):
            cells = dense[passing]
            assert got.count_valid() == cells.size, name
            assert got.aggregate("count") == cells.size, name
            assert got.sum() == pytest.approx(cells.sum(), rel=1e-12)
            assert got.aggregate(sum_of_squares()) == pytest.approx(
                (cells * cells).sum(), rel=1e-12)
            if cells.size:
                assert got.min() == cells.min(), name
                assert got.max() == cells.max(), name
                assert got.avg() == pytest.approx(cells.mean(), rel=1e-12)
            else:
                assert (got.min(), got.max(), got.avg()) == \
                    (None, None, None)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("mode", MODES)
    def test_windows(self, ctx, mode, window):
        values, valid = cube(2)
        array = make_array(ctx, values, valid, mode)
        for name, got, dense, passing in plans(array, values, valid):
            expected = window_oracle(dense, passing, window)
            merged = merged_windows(got, window)
            if not expected:
                assert merged is None, name
                continue
            keys, sums, counts = merged
            keys = list(map(tuple, keys.tolist()))
            assert sorted(keys) == sorted(expected), name
            assert counts.tolist() == [expected[key][0] for key in keys]
            np.testing.assert_allclose(
                sums, [expected[key][1] for key in keys], rtol=1e-12)


class TestPerChunkIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_aggregates_bit_identical(self, ctx, mode):
        values, valid = cube(3)
        array = make_array(ctx, values, valid, mode)
        for name, got, _dense, _passing in plans(array, values, valid):
            for agg_name in AGGREGATORS:
                agg = aggregator(agg_name)
                assert pickle.dumps(got.aggregate(agg)) == pickle.dumps(
                    per_chunk_aggregate(got, agg)), (name, agg_name)
            assert got.count_valid() == sum(
                chunk.valid_count for _cid, chunk in got.rdd.collect())

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("mode", MODES)
    def test_window_partials_byte_identical(self, ctx, mode, window):
        values, valid = cube(4)
        array = make_array(ctx, values, valid, mode)
        for name, got, _dense, _passing in plans(array, values, valid):
            batched = _window_partials(got, window).collect()
            chunked = window_partials(got, window).collect()
            # one record per partition with a valid cell, holding its
            # chunks' records in order
            assert len(batched) <= got.rdd.num_partitions, name
            for new, old in zip(zip(*batched), zip(*chunked)):
                assert pickle.dumps(np.concatenate(new)) == \
                    pickle.dumps(np.concatenate(old)), name
            assert pickle.dumps(_merge_windows(batched, got.meta, window)) \
                == pickle.dumps(_merge_windows(chunked, got.meta, window))

    def test_process_matches_serial(self):
        values, valid = cube(5)

        def run(ctx):
            out = []
            for mode in list(ChunkMode) + ["mixed"]:
                array = make_array(ctx, values, valid, mode)
                out.extend(results(got) for _name, got, _dense, _passing
                           in plans(array, values, valid))
            return pickle.dumps(out)

        serial = run(ClusterContext(num_executors=2, default_parallelism=3))
        with ClusterContext(num_executors=2, default_parallelism=3,
                            backend="process") as ctx:
            assert run(ctx) == serial


class TestReadsWithoutDecoding:
    @pytest.mark.parametrize("mode", MODES)
    def test_identity_plan_decodes_no_offsets(self, ctx, mode,
                                              monkeypatch):
        values, valid = cube(6)
        array = make_array(ctx, values, valid, mode).cache()
        want = (array.sum(), array.count_valid())

        def refuse(*_args):
            raise AssertionError("an identity reduction decoded a mask")

        monkeypatch.setattr(plan_module, "stack_words", refuse)
        monkeypatch.setattr(plan_module, "set_positions", refuse)
        assert (array.sum(), array.count_valid()) == want

    @pytest.mark.parametrize("mode", MODES)
    def test_sink_passes_encode_no_chunk(self, ctx, mode, monkeypatch):
        values, valid = cube(6)
        array = make_array(ctx, values, valid, mode)
        chains = [got for _name, got, _dense, _passing
                  in plans(array, values, valid)]
        want = pickle.dumps([results(chain) for chain in chains])

        def refuse(_batch):
            raise AssertionError("a reduction encoded chunks")

        monkeypatch.setattr(plan_module.Batch, "encode", refuse)
        assert pickle.dumps([results(chain) for chain in chains]) == want

    def test_persisted_compiled_rdd_is_read_not_recomputed(self, ctx):
        values, valid = cube(7)
        array = ArrayRDD.from_numpy(ctx, values, CHUNK, valid=valid)
        calls = []

        def predicate(xs):
            calls.append(xs.size)
            return xs > 2.0

        chain = array.filter(predicate)
        chain.rdd.cache()
        total = chain.sum()
        seen = len(calls)
        assert (chain.sum(), chain.count_valid()) == (total, int(
            (valid & (values > 2.0)).sum()))
        assert len(calls) == seen

    def test_unpersisted_plan_runs_once_per_reduction(self, ctx):
        values, valid = cube(8)
        array = ArrayRDD.from_numpy(ctx, values, CHUNK, valid=valid)
        calls = []

        def predicate(xs):
            calls.append(xs.size)
            return xs > 2.0

        chain = array.filter(predicate)
        chain.rdd                       # memoized, not persisted
        chain.sum()
        # one pass: the predicate saw each chunk once, none twice
        assert len(calls) == len(array.rdd.collect())


class TestSinkSpans:
    def test_spans_and_avoided_encodes(self):
        values, valid = cube(9)
        ctx = ClusterContext(num_executors=2, default_parallelism=3,
                             trace=True)
        array = ArrayRDD.from_numpy(ctx, values, CHUNK, valid=valid)

        def chain():
            return array.filter(lambda xs: xs > 3.0).map_values(np.sqrt)

        def plan_spans(action):
            before = len(ctx.tracer.spans())
            delta = ctx.metrics.snapshot()
            action()
            delta = ctx.metrics.snapshot() - delta
            spans = sorted((span for span in ctx.tracer.spans()[before:]
                            if span.kind == "plan"),
                           key=lambda span: span.attrs["partition"])
            return spans, delta

        encoded, encode_delta = plan_spans(lambda: chain().rdd.collect())
        counted, count_delta = plan_spans(lambda: chain().count_valid())
        assert [span.name for span in counted] == \
            ["fused[filter→map→count_valid]"] * 3
        for enc, sink in zip(encoded, counted):
            assert sink.attrs["kernels"] == ["filter", "map"]
            assert sink.attrs["chunks_in"] == enc.attrs["chunks_in"]
            # the chunks that reached the sink, by mode, unencoded
            assert sink.attrs["chunks_out"] == enc.attrs["chunks_out"]
            for mode in ChunkMode:
                key = f"chunks_{mode.value}"
                assert sink.attrs.get(key) == enc.attrs.get(key)
            assert not any(key.startswith("payload_bytes_")
                           for key in sink.attrs)
            # every surviving chunk was rebuilt; the sink skips its encode
            assert sink.attrs["chunk_builds_avoided"] == \
                enc.attrs["chunk_builds_avoided"] + enc.attrs["chunks_out"]
        assert count_delta.fused_chunks_avoided == \
            encode_delta.fused_chunks_avoided + sum(
                span.attrs["chunks_out"] for span in encoded)
        assert count_delta.kernels_fused == encode_delta.kernels_fused == 2

        bare, bare_delta = plan_spans(lambda: array.aggregate("avg"))
        assert [span.name for span in bare] == ["aggregate"] * 3
        for span in bare:
            assert span.attrs["kernels"] == []
            assert span.attrs["chunks_out"] == span.attrs["chunks_in"]
            assert span.attrs["chunk_builds_avoided"] == 0
        assert bare_delta.fused_chunks_avoided == 0
        assert bare_delta.kernels_fused == 0

        windows, _delta = plan_spans(
            lambda: _window_partials(chain(), 5).collect())
        assert [span.name for span in windows] == \
            ["fused[filter→map→window_partials]"] * 3
