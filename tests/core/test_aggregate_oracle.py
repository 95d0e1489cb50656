"""Dense-numpy oracle for ``aggregate_by`` and ``window_aggregate``.

Both run one aggregation path: a shuffle keyed by output cell that
builds the output chunks directly. The oracle folds the dense
``(values, valid)`` array with numpy over the same groups. Counts, min
and max must match exactly; sums and averages to ``rtol=1e-12`` (the
fold order is not numpy's pairwise summation).
"""

import pickle

import numpy as np
import pytest

from repro.core import ArrayRDD, ChunkMode
from repro.core.aggregates import Aggregator, scalar_aggregator
from repro.core.chunk import Chunk
from repro.core.metadata import ArrayMetadata
from repro.core.windows import window_aggregate
from repro.engine import ClusterContext
from repro.errors import ArrayError

AGGREGATORS = ("sum", "count", "min", "max", "avg")
MODES = [pytest.param(mode, id=mode.name.lower()) for mode in ChunkMode]
SHAPE = (13, 10, 7)          # ragged last chunk on every axis
CHUNK = (4, 3, 5)
STARTS = (-5, 2, -3)         # negative starts on two axes
NAMES = ("x", "y", "t")
PRODUCT = scalar_aggregator("product", lambda: 1.0,
                            lambda state, v: state * v,
                            lambda a, b: a * b)


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=2, default_parallelism=3)


def make_cube(seed, density=0.5, integer=False):
    rng = np.random.default_rng(seed)
    if integer:
        values = rng.integers(-1000, 1000, SHAPE)
    else:
        values = rng.normal(size=SHAPE)
    return values, rng.random(SHAPE) < density


def as_array(ctx, values, valid, mode):
    return ArrayRDD.from_numpy(ctx, values, CHUNK, valid=valid, mode=mode,
                               starts=STARTS, dim_names=NAMES)


def fold_last_axis(values, valid, name):
    """``(expected, any_valid)``: ``name`` folded over the last axis."""
    count = valid.sum(axis=-1)
    if name == "count":
        return count.astype(float), count > 0
    if name in ("min", "max"):
        fill = np.inf if name == "min" else -np.inf
        reduce = np.min if name == "min" else np.max
        folded = reduce(np.where(valid, values.astype(float), fill),
                        axis=-1)
        return folded, count > 0
    total = np.where(valid, values, 0).astype(float).sum(axis=-1)
    if name == "sum":
        return total, count > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        return total / count, count > 0


def group_oracle(values, valid, axes, name):
    """``aggregate_by(axes)``: keep ``axes`` in order, fold the rest."""
    rest = [a for a in range(values.ndim) if a not in axes]
    order = list(axes) + rest
    kept = tuple(values.shape[a] for a in axes)
    return fold_last_axis(values.transpose(order).reshape(kept + (-1,)),
                          valid.transpose(order).reshape(kept + (-1,)),
                          name)


def window_oracle(values, valid, window, name):
    """``window_aggregate(window)``: fold every tiling window."""
    out = tuple(-(-n // w) for n, w in zip(values.shape, window))
    padded = tuple(o * w for o, w in zip(out, window))
    pad = [(0, p - n) for p, n in zip(padded, values.shape)]
    values = np.pad(values, pad)
    valid = np.pad(valid, pad)
    split = tuple(x for o, w in zip(out, window) for x in (o, w))
    order = list(range(0, 2 * len(out), 2)) + list(range(1, 2 * len(out),
                                                         2))
    return fold_last_axis(
        values.reshape(split).transpose(order).reshape(out + (-1,)),
        valid.reshape(split).transpose(order).reshape(out + (-1,)),
        name)


def assert_matches(result, expected, name):
    want, want_valid = expected
    got, got_valid = result.collect_dense(fill=0.0)
    assert got.shape == want.shape
    assert np.array_equal(got_valid, want_valid)
    if name in ("sum", "avg"):
        np.testing.assert_allclose(got[want_valid], want[want_valid],
                                   rtol=1e-12, atol=0)
    else:
        assert np.array_equal(got[want_valid], want[want_valid])


class TestAggregateBy:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", AGGREGATORS)
    @pytest.mark.parametrize("dims", [("x", "y"), ("t", "x"), ("y",)])
    def test_matches_numpy(self, ctx, dims, name, mode):
        values, valid = make_cube(1)
        arr = as_array(ctx, values, valid, mode)
        axes = [NAMES.index(d) for d in dims]
        out = arr.aggregate_by(dims, name)
        assert out.meta.dim_names == dims
        assert out.meta.starts == tuple(STARTS[a] for a in axes)
        assert_matches(out, group_oracle(values, valid, axes, name), name)

    @pytest.mark.parametrize("name", AGGREGATORS)
    def test_output_chunks_smaller_than_input(self, ctx, name):
        values, valid = make_cube(2)
        arr = as_array(ctx, values, valid, None)
        out = arr.aggregate_by(("y", "x"), name, group_chunk_shape=(2, 3))
        assert_matches(out, group_oracle(values, valid, [1, 0], name),
                       name)

    @pytest.mark.parametrize("name", ["min", "max"])
    def test_int_payload_min_max_exact(self, ctx, name):
        values, valid = make_cube(3, integer=True)
        out = as_array(ctx, values, valid, None).aggregate_by(("t",), name)
        assert_matches(out, group_oracle(values, valid, [2], name), name)

    @pytest.mark.parametrize("name", AGGREGATORS)
    def test_no_valid_cells(self, ctx, name):
        values, _valid = make_cube(4)
        arr = as_array(ctx, values, np.zeros(SHAPE, dtype=bool), None)
        out = arr.aggregate_by(("x",), name)
        assert out.num_chunks_materialized() == 0
        assert not out.collect_dense()[1].any()

    def test_scalar_aggregator_product(self, ctx):
        values, valid = make_cube(5)
        values = 1.0 + 0.1 * values
        out = as_array(ctx, values, valid, None).aggregate_by(("t", "x"),
                                                              PRODUCT)
        want = np.where(valid, values, 1.0).prod(axis=1).T
        got, got_valid = out.collect_dense()
        assert np.array_equal(got_valid, valid.any(axis=1).T)
        np.testing.assert_allclose(got[got_valid], want[got_valid],
                                   rtol=1e-12)

    def test_evaluate_none_leaves_cell_invalid(self, ctx):
        class PositiveSum(Aggregator):
            name = "positive_sum"

            def initialize(self):
                return 0.0

            def accumulate(self, state, values):
                return state + float(values.sum())

            def merge(self, a, b):
                return a + b

            def evaluate(self, state):
                return state if state > 0 else None

        values, valid = make_cube(6)
        out = as_array(ctx, values, valid, None).aggregate_by(
            ("x", "y"), PositiveSum())
        sums, _any = group_oracle(values, valid, [0, 1], "sum")
        got, got_valid = out.collect_dense()
        assert np.array_equal(got_valid, sums > 0)
        np.testing.assert_allclose(got[got_valid], sums[sums > 0],
                                   rtol=1e-12)

    def test_negative_axis_counts_from_the_end(self, ctx):
        values, valid = make_cube(7)
        arr = as_array(ctx, values, valid, None)
        assert_matches(arr.aggregate_by([-1, 0], "count"),
                       group_oracle(values, valid, [2, 0], "count"),
                       "count")

    def test_out_of_range_axis_rejected(self, ctx):
        arr = ArrayRDD.from_numpy(ctx, np.ones((4, 4)), (2, 2))
        with pytest.raises(ArrayError, match="bad group dimensions"):
            arr.aggregate_by([5])
        with pytest.raises(ArrayError, match="bad group dimensions"):
            arr.aggregate_by([-3])

    def test_negative_duplicate_axis_rejected(self, ctx):
        arr = ArrayRDD.from_numpy(ctx, np.ones((4, 4)), (2, 2))
        with pytest.raises(ArrayError, match="bad group dimensions"):
            arr.aggregate_by([0, -2])

    @pytest.mark.parametrize("shape", [(2 ** 31, 2 ** 31, 4),
                                       (2 ** 40, 2 ** 40, 4)])
    def test_key_space_overflow_raises(self, ctx, shape):
        # a huge virtual shape holding one tiny chunk: the output cell
        # keys would pass 2**61 - 1, so the call fails before any task
        meta = ArrayMetadata(shape, (1, 1, 4), dim_names=NAMES)
        chunk = Chunk.from_dense(np.ones(4), np.ones(4, dtype=bool))
        arr = ArrayRDD.from_chunks(ctx, [(0, chunk)], meta)
        with pytest.raises(ArrayError, match=r"2\*\*61 - 1"):
            arr.aggregate_by(("x", "y"))
        with pytest.raises(ArrayError, match=r"2\*\*61 - 1"):
            window_aggregate(arr, (1, 1, 4), "sum")


class TestWindowAggregate:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", AGGREGATORS)
    @pytest.mark.parametrize("window", [(3, 2, 7), (1, 4, 2)])
    def test_matches_numpy(self, ctx, window, name, mode):
        values, valid = make_cube(8)
        out = window_aggregate(as_array(ctx, values, valid, mode), window,
                               name)
        assert_matches(out, window_oracle(values, valid, window, name),
                       name)

    @pytest.mark.parametrize("name", AGGREGATORS)
    def test_small_result_chunks(self, ctx, name):
        values, valid = make_cube(9)
        out = window_aggregate(as_array(ctx, values, valid, None),
                               (2, 2, 3), name, result_chunk_shape=(2, 1, 2))
        assert_matches(out, window_oracle(values, valid, (2, 2, 3), name),
                       name)

    @pytest.mark.parametrize("name", ["min", "max"])
    def test_int_payload_min_max_exact(self, ctx, name):
        values, valid = make_cube(10, integer=True)
        out = window_aggregate(as_array(ctx, values, valid, None),
                               (5, 3, 2), name)
        assert_matches(out, window_oracle(values, valid, (5, 3, 2), name),
                       name)

    @pytest.mark.parametrize("name", AGGREGATORS)
    def test_no_valid_cells(self, ctx, name):
        values, _valid = make_cube(11)
        arr = as_array(ctx, values, np.zeros(SHAPE, dtype=bool), None)
        out = window_aggregate(arr, (2, 2, 2), name)
        assert out.num_chunks_materialized() == 0


def _aggregations(arr):
    return ([arr.aggregate_by(("t", "x"), name)
             for name in ("sum", "min", "avg")]
            + [arr.aggregate_by(("x", "y"), PRODUCT)]
            + [window_aggregate(arr, (3, 2, 7), name)
               for name in ("count", "max", "avg")])


def _result_bytes(kwargs):
    with ClusterContext(num_executors=2, default_parallelism=3,
                        **kwargs) as context:
        values, valid = make_cube(12)
        arr = as_array(context, values, valid, None)
        return [[(chunk_id, pickle.dumps(chunk))
                 for chunk_id, chunk in out.rdd.collect()]
                for out in _aggregations(arr)]


@pytest.mark.parametrize("kwargs", [
    pytest.param({"use_threads": True}, id="thread"),
    pytest.param({"backend": "process"}, id="process"),
])
def test_result_chunks_identical_across_backends(kwargs):
    assert _result_bytes(kwargs) == _result_bytes({})
