"""The MaskRDD query chains against dense numpy, and across backends.

Q3, Q4 and the multi-band filter → Q5 chain (the ``mask_chain`` shape
of the benchmark) run through the zipped MaskRDD and the batched plan
pass. Every answer is checked against masked numpy on the same cube,
with the attributes forced to DENSE, SPARSE and SUPER_SPARSE and with
one partition mixing all three modes. A second set of attributes with
different partition counts exercises the ``partition_by`` step in
front of the zip. The process backend must return pickle-identical
chunk lists.
"""

import pickle

import numpy as np
import pytest

from repro.core import ArrayRDD, ChunkMode, SpangleDataset
from repro.engine import ClusterContext
from repro.queries import SpangleRasterQueries
from tests._reference.windows import reference_window_counts

SHAPE = (36, 28, 3)            # ragged against the 16 x 16 chunks
CHUNK = (16, 16, 1)
BOX = ((4, 3, 0), (29, 20, 1))  # not chunk-aligned: partial masks
WINDOW, MIN_COUNT = 5, 3


def above(threshold):
    return lambda xs: xs > threshold


def below(threshold):
    return lambda xs: xs < threshold


def cube(seed):
    rng = np.random.default_rng(seed)
    return rng.random(SHAPE) * 4.0, rng.random(SHAPE) < 0.55


def in_box(box):
    inside = np.zeros(SHAPE, dtype=bool)
    if box is None:
        inside[...] = True
    else:
        (x0, y0, t0), (x1, y1, t1) = box
        inside[x0:x1 + 1, y0:y1 + 1, t0:t1 + 1] = True
    return inside


def make_array(ctx, values, valid, mode, name, num_partitions=None):
    """``mode`` forces every chunk; ``"mixed"`` cycles the three modes
    through one partition."""
    if mode != "mixed":
        return ArrayRDD.from_numpy(ctx, values, CHUNK, valid=valid,
                                   mode=mode, attribute=name,
                                   num_partitions=num_partitions)
    auto = ArrayRDD.from_numpy(ctx, values, CHUNK, valid=valid,
                               attribute=name)
    modes = list(ChunkMode)
    records = [(cid, chunk.convert(modes[cid % 3]))
               for cid, chunk in auto.rdd.collect()]
    return ArrayRDD.from_chunks(ctx, records, auto.meta, num_partitions=1)


def windows_over(passing) -> int:
    counts = reference_window_counts(passing, WINDOW)
    return sum(1 for count in counts.values() if count > MIN_COUNT)


MODES = [pytest.param(mode, id=mode.value) for mode in ChunkMode] + [
    pytest.param("mixed", id="mixed")]


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=2, default_parallelism=3)


class TestDenseOracle:
    @pytest.mark.parametrize("box", [None, BOX], ids=["all", "box"])
    @pytest.mark.parametrize("mode", MODES)
    def test_chains_match_masked_numpy(self, ctx, mode, box):
        (a, va), (b, vb) = cube(1), cube(2)
        attrs = {"a": make_array(ctx, a, va, mode, "a"),
                 "b": make_array(ctx, b, vb, mode, "b")}
        self.check(attrs, a, va, b, vb, box)

    def test_attributes_on_different_partition_counts(self, ctx):
        (a, va), (b, vb) = cube(3), cube(4)
        attrs = {"a": make_array(ctx, a, va, None, "a", num_partitions=3),
                 "b": make_array(ctx, b, vb, None, "b", num_partitions=2)}
        assert attrs["a"].rdd.partitioner != attrs["b"].rdd.partitioner
        for box in (None, BOX):
            self.check(attrs, a, va, b, vb, box)

    @staticmethod
    def check(attrs, a, va, b, vb, box):
        inside = in_box(box)
        # single band: Q3 and Q4 (the pristine dataset pushes the box
        # into the attribute, then filters through the MaskRDD)
        single = SpangleRasterQueries(SpangleDataset({"a": attrs["a"]}))
        passing = va & inside & (a > 1.0)
        assert single.q3_conditional_aggregation("a", above(1.0), box) \
            == pytest.approx(a[passing].mean(), rel=1e-12)
        assert single.q4_polygons("a", above(1.0), above(2.0), box) \
            == int((passing & (a > 2.0)).sum())
        # two bands: the initial mask ANDs both validities; then one
        # filter per band, then evaluate, avg, count and Q5 density
        both = SpangleDataset(dict(attrs))
        if box is not None:
            both = both.subarray(*box)
        chained = both.filter("a", above(1.0)).filter("b", below(3.0))
        passing = va & vb & inside & (a > 1.0) & (b < 3.0)
        evaluated = chained.evaluate("a")
        assert evaluated.aggregate("avg") \
            == pytest.approx(a[passing].mean(), rel=1e-12)
        assert evaluated.count_valid() == int(passing.sum())
        assert chained.count_valid("b") == int(passing.sum())
        assert chained.mask.count_valid() == int(passing.sum())
        assert SpangleRasterQueries(chained).q5_density(
            "a", WINDOW, MIN_COUNT) == windows_over(passing)


def chains(ctx):
    """Collected chunk lists of the MaskRDD chains and of ``combine``."""
    (a, va), (b, vb) = cube(5), cube(6)
    A = ArrayRDD.from_numpy(ctx, a, CHUNK, valid=va, attribute="a")
    B = ArrayRDD.from_numpy(ctx, b, CHUNK, valid=vb, attribute="b")
    both = SpangleDataset({"a": A, "b": B})
    single = SpangleDataset({"a": A}).subarray(*BOX)
    arrays = [
        both.filter("a", above(1.0)).filter("b", below(3.0)).evaluate("a"),
        both.subarray(*BOX).filter("a", above(1.0)).evaluate("b")
            .filter(above(2.0)),
        single.filter("a", above(1.0)).evaluate("a"),
        A.combine(B, np.add, how="and").filter(above(3.0)),
        A.combine(B, np.subtract, how="or", fill=0.5) * 2.0,
    ]
    return [array.rdd.collect() for array in arrays]


def test_chunk_lists_identical_on_serial_and_process():
    with ClusterContext(num_executors=2, default_parallelism=3) as serial:
        expected = [pickle.dumps(chunks) for chunks in chains(serial)]
    with ClusterContext(num_executors=2, default_parallelism=3,
                        backend="process") as process:
        got = [pickle.dumps(chunks) for chunks in chains(process)]
    assert got == expected
