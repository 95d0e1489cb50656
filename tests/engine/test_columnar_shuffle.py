"""The columnar shuffle data plane (``repro.engine.batches``).

The contract under test everywhere: the packed path must be
**byte-identical** to the generic per-record path — same record order,
same Python value types, same float bits — and must *refuse* (fall back)
whenever it cannot guarantee that.
"""

import pickle
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import ClusterContext
from repro.engine.batches import (
    VALUE_PACK_BYTE_LIMIT,
    ArrayValues,
    RecordBatch,
    ScalarValues,
    combine_runs,
    group_indices_by_partition,
    pack_int_keys,
    pack_records,
    pack_values,
)
from repro.engine.pairs import cogroup
from repro.engine.partitioner import (
    HASH_MODULUS,
    BlockPartitioner,
    HashPartitioner,
)
from repro.errors import EngineError
from repro.matrix.multiply import k_partitioners
from tests._reference.engine import shuffle_path


class TestPartitionArray:
    """partition_array must agree element-wise with partition()."""

    def _check(self, partitioner, keys):
        expected = [partitioner.partition(k) for k in keys]
        got = partitioner.partition_array(
            np.array(keys, dtype=np.int64))
        assert got is not None
        assert got.tolist() == expected

    def test_hash_matches_including_negatives(self):
        self._check(HashPartitioner(7),
                    [0, 1, -1, -2, 5, -5, 1000003, -999999])

    def test_hash_minus_one_quirk(self):
        # CPython: hash(-1) == -2
        part = HashPartitioner(5)
        self._check(part, [-1])
        assert part.partition(-1) == (-2) % 5

    def test_hash_refuses_keys_at_modulus(self):
        part = HashPartitioner(4)
        for bad in (HASH_MODULUS, -HASH_MODULUS, HASH_MODULUS + 5):
            keys = np.array([0, bad], dtype=np.int64)
            assert part.partition_array(keys) is None
        # just inside the modulus still packs
        self._check(part, [HASH_MODULUS - 1, -(HASH_MODULUS - 1)])

    @pytest.mark.parametrize("part", [
        BlockPartitioner(4, divisor=10),
        BlockPartitioner(4, modulus=3),
        BlockPartitioner(5, divisor=7, modulus=11),
        BlockPartitioner(3),
    ], ids=["divisor", "modulus", "both", "plain"])
    def test_block_matches(self, part):
        # no hash is involved, so keys at and past the modulus pack too
        self._check(part, [0, 9, 10, 45, 399, -1, -2, -11, -399,
                           HASH_MODULUS - 1, HASH_MODULUS, HASH_MODULUS + 5,
                           -(HASH_MODULUS - 1), -HASH_MODULUS,
                           2 ** 63 - 1, -2 ** 63])


class TestBlockPartitionerEquality:
    """Placements are values: equal fields, equal placement."""

    def test_left_and_right_k_placements_differ(self):
        grid = SimpleNamespace(grid_rows=3)
        left, right = k_partitioners(grid, grid, 4)
        assert left != right
        assert right != left

    def test_equal_grid_rows_give_equal_left_placements(self):
        left, _right = k_partitioners(SimpleNamespace(grid_rows=3),
                                      SimpleNamespace(grid_rows=5), 4)
        again, _other = k_partitioners(SimpleNamespace(grid_rows=3),
                                       SimpleNamespace(grid_rows=7), 4)
        assert left == again
        assert hash(left) == hash(again)
        assert left != k_partitioners(SimpleNamespace(grid_rows=2),
                                      SimpleNamespace(grid_rows=5), 4)[0]


class TestKeyPacking:
    def test_plain_ints_pack(self):
        keys = pack_int_keys([(3, "a"), (-7, "b")])
        assert keys.dtype == np.int64
        assert keys.tolist() == [3, -7]

    def test_bool_and_numpy_keys_refuse(self):
        assert pack_int_keys([(True, 1)]) is None
        assert pack_int_keys([(np.int64(3), 1)]) is None
        assert pack_int_keys([(3, 1), ("x", 2)]) is None

    def test_bignum_keys_refuse(self):
        assert pack_int_keys([(1 << 70, 1)]) is None

    def test_empty_refuses(self):
        assert pack_int_keys([]) is None


class TestValueCodecs:
    def test_float_column_roundtrips_bit_exact(self):
        values = [0.1, -0.0, 1e300, 5e-324, float("inf"), 2.5]
        packed = pack_values(values)
        assert isinstance(packed, ScalarValues)
        out = packed.unpack()
        assert pickle.dumps(out) == pickle.dumps(values)
        assert packed.nbytes == 8 * len(values)

    def test_int_column_roundtrips(self):
        values = [5, -3, 2**62, 0]
        packed = pack_values(values)
        out = packed.unpack()
        assert out == values
        assert all(type(v) is int for v in out)

    def test_mixed_and_numpy_scalars_refuse(self):
        assert pack_values([1, 2.0]) is None
        assert pack_values([np.float64(1.0), np.float64(2.0)]) is None
        assert pack_values([1, True]) is None
        assert pack_values([2**70, 1]) is None

    def test_pair_column_roundtrips(self):
        values = [(3, 0.5), (9, -1.25), (0, 2.0)]
        packed = pack_values(values)
        out = packed.unpack()
        assert pickle.dumps(out) == pickle.dumps(values)
        assert packed.nbytes == 2 * 8 * len(values)

    def test_ragged_pairs_refuse(self):
        assert pack_values([(1, 2.0), (1, 2.0, 3.0)]) is None
        assert pack_values([(1, 2.0), (1.5, 2.0)]) is None

    def test_array_column_roundtrips_and_gathers(self):
        rng = np.random.default_rng(0)
        values = [rng.random((2, 3)), rng.random((4, 1)),
                  np.zeros((0, 2))]
        packed = pack_values(values)
        out = packed.unpack()
        assert pickle.dumps(out) == pickle.dumps(values)
        idx = np.array([2, 0])
        gathered = packed.gather(idx).unpack()
        assert pickle.dumps(gathered) \
            == pickle.dumps([values[2], values[0]])

    def test_array_column_exact_nbytes(self):
        values = [np.ones(10), np.ones(6)]
        packed = pack_values(values)
        # payload + per-record lengths + shapes
        assert packed.nbytes == 16 * 8 + 2 * 8 + 2 * 8

    def test_large_arrays_ship_by_reference(self):
        # packing copies the payload; past the mean-bytes limit the
        # copies cost more than the per-record framing they save
        per_record = VALUE_PACK_BYTE_LIMIT // 8
        assert pack_values([np.ones(per_record),
                            np.ones(per_record)]) is None
        small = [np.ones(per_record - 1), np.ones(per_record - 1)]
        assert isinstance(pack_values(small), ArrayValues)

    def test_mixed_dtype_and_fortran_arrays_refuse(self):
        assert pack_values([np.ones(2), np.ones(2, dtype=np.int64)]) is None
        fortran = np.asfortranarray(np.ones((3, 3)))
        assert pack_values([fortran, np.ones((3, 3))]) is None
        assert pack_values([np.array(1.0)]) is None  # 0-d

    def test_pack_records_and_batch_nbytes(self):
        records = [(1, 2.0), (9, 3.5)]
        batch = pack_records(records)
        assert isinstance(batch, RecordBatch)
        assert batch.records() == records
        assert batch.nbytes == 2 * 8 + 2 * 8
        assert len(batch) == 2


class TestGroupIndices:
    def test_preserves_record_order_per_bucket(self):
        pids = np.array([2, 0, 2, 1, 0, 2], dtype=np.int64)
        groups = group_indices_by_partition(pids, 4)
        assert [g.tolist() for g in groups] \
            == [[1, 4], [3], [0, 2, 5], []]


def _dict_fold(keys, data, fold):
    merged = {}
    for key, value in zip(keys, data):
        merged[key] = fold(merged[key], value) if key in merged else value
    return merged


class TestCombineRuns:
    @pytest.mark.parametrize("kernel,fold", [
        ("sum", lambda a, b: a + b),
        ("min", min),
        ("max", max),
    ])
    def test_bit_identical_to_python_fold(self, kernel, fold):
        rng = random.Random(42)
        keys = [rng.randrange(20) for _ in range(500)]
        # adversarial magnitudes: catastrophic-cancellation territory
        data = [rng.random() * 10 ** rng.randrange(-8, 9)
                for _ in range(500)]
        expected = _dict_fold(keys, data, fold)
        out = combine_runs(np.array(keys, dtype=np.int64),
                           np.array(data, dtype=np.float64), kernel)
        assert out is not None
        out_keys, out_data = out
        assert out_keys.tolist() == list(expected.keys())
        assert pickle.dumps(out_data.tolist()) \
            == pickle.dumps(list(expected.values()))

    def test_int_sum_exact(self):
        keys = np.array([3, 1, 3, 1, 3], dtype=np.int64)
        data = np.array([10, -2, 30, 4, 1], dtype=np.int64)
        out_keys, out_data = combine_runs(keys, data, "sum")
        assert out_keys.tolist() == [3, 1]
        assert out_data.tolist() == [41, 2]

    def test_int_sum_overflow_risk_refuses(self):
        keys = np.array([0, 0], dtype=np.int64)
        data = np.array([1 << 62, 1], dtype=np.int64)
        assert combine_runs(keys, data, "sum") is None

    def test_min_max_refuse_nan(self):
        keys = np.array([0, 0], dtype=np.int64)
        data = np.array([1.0, float("nan")])
        assert combine_runs(keys, data, "min") is None
        assert combine_runs(keys, data, "max") is None

    def test_first_appearance_order(self):
        keys = np.array([9, 2, 9, 5, 2], dtype=np.int64)
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out_keys, _ = combine_runs(keys, data, "sum")
        assert out_keys.tolist() == [9, 2, 5]

    def test_unknown_kernel_rejected_by_shuffle(self):
        with ClusterContext(num_executors=2) as ctx:
            pairs = ctx.parallelize([(1, 2.0)], 1)
            with pytest.raises(EngineError):
                pairs.reduce_by_key(lambda a, b: a + b,
                                    combine_kernel="median").collect()


# ----------------------------------------------------------------------
# randomized end-to-end property: columnar == generic, byte for byte
# ----------------------------------------------------------------------

def _int_keys(rng, n):
    return [rng.randrange(-50, 50) for _ in range(n)]


def _tuple_keys(rng, n):
    return [(rng.randrange(5), rng.randrange(5)) for _ in range(n)]


def _string_keys(rng, n):
    return [f"k{rng.randrange(30)}" for _ in range(n)]


KEY_MAKERS = {"int": _int_keys, "tuple": _tuple_keys,
              "string": _string_keys}


def _value(rng):
    return rng.random() * 10 ** rng.randrange(-6, 7)


def _op_reduce(pairs_rdd):
    return pairs_rdd.reduce_by_key(lambda a, b: a + b,
                                   combine_kernel="sum").collect()


def _op_reduce_no_kernel(pairs_rdd):
    return pairs_rdd.reduce_by_key(lambda a, b: a + b).collect()


def _op_reduce_strings(pairs_rdd):
    # unpackable values under map-side combine: the combined partition
    # buckets as (key, value) lists whatever the keys
    return pairs_rdd.map_values(lambda v: f"{v:.4g};") \
                    .reduce_by_key(lambda a, b: a + b).collect()


def _op_combine_no_map_side(pairs_rdd):
    return pairs_rdd.combine_by_key(
        lambda v: [v], lambda acc, v: acc + [v], lambda a, b: a + b,
        map_side_combine=False).collect()


def _op_group(pairs_rdd):
    return pairs_rdd.group_by_key().collect()


def _op_cogroup(pairs_rdd):
    other = pairs_rdd.map_values(lambda v: -v)
    return pairs_rdd.cogroup(other).collect()


def _op_cogroup3_narrow(pairs_rdd):
    # three parents, the first already co-partitioned (a narrow slot)
    part = HashPartitioner(3)
    placed = pairs_rdd.partition_by(part)
    negated = pairs_rdd.map_values(lambda v: -v)
    large = pairs_rdd.filter(lambda kv: kv[1] > 1.0)
    return cogroup([placed, negated, large], part).collect()


def _op_join(pairs_rdd):
    other = pairs_rdd.map_values(lambda v: v * 2)
    return pairs_rdd.join(other).count()


OPS = {"reduce": _op_reduce, "reduce_no_kernel": _op_reduce_no_kernel,
       "reduce_strings": _op_reduce_strings,
       "combine_no_map_side": _op_combine_no_map_side,
       "group": _op_group, "cogroup": _op_cogroup,
       "cogroup3_narrow": _op_cogroup3_narrow, "join": _op_join}

MODES = {"serial": dict(num_executors=4, use_threads=False),
         "threaded": dict(num_executors=4, use_threads=True),
         "process": dict(num_executors=2, backend="process")}


class TestColumnarGenericProperty:
    @pytest.mark.parametrize("key_kind", sorted(KEY_MAKERS))
    @pytest.mark.parametrize("op_name", sorted(OPS))
    @pytest.mark.parametrize("mode", list(MODES))
    def test_byte_identity(self, key_kind, op_name, mode):
        rng = random.Random(hash((key_kind, op_name)) & 0xFFFF)
        data = [(k, _value(rng))
                for k in KEY_MAKERS[key_kind](rng, 400)]

        def run(columnar):
            # the patch is entered first so forked workers inherit it
            with shuffle_path(columnar), \
                    ClusterContext(**MODES[mode]) as ctx:
                return OPS[op_name](ctx.parallelize(data, 6))

        assert pickle.dumps(run(True)) == pickle.dumps(run(False))

    def test_int_keyed_sum_actually_ships_batches(self):
        data = [(i % 13, float(i)) for i in range(300)]
        with ClusterContext(num_executors=2) as ctx:
            before = ctx.metrics.snapshot()
            ctx.parallelize(data, 4).reduce_by_key(
                lambda a, b: a + b, combine_kernel="sum").collect()
            delta = ctx.metrics.snapshot() - before
        assert delta.shuffle_batches > 0
        # map-side combine leaves 13 keys per map task at most
        assert delta.shuffle_batch_records == delta.shuffle_records

    def test_string_keys_fall_back_without_batches(self):
        data = [(f"k{i % 13}", float(i)) for i in range(300)]
        with ClusterContext(num_executors=2) as ctx:
            before = ctx.metrics.snapshot()
            ctx.parallelize(data, 4).reduce_by_key(
                lambda a, b: a + b).collect()
            delta = ctx.metrics.snapshot() - before
        assert delta.shuffle_batches == 0
        assert delta.shuffle_records > 0


class TestNarrowShuffleAnnotation:
    def test_narrow_path_emits_span_and_timing(self):
        part = HashPartitioner(4)
        with ClusterContext(num_executors=2, trace=True) as ctx:
            pairs = ctx.parallelize(
                [(i % 11, float(i)) for i in range(110)], 4) \
                .partition_by(part).cache()
            pairs.collect()  # materialize the placement shuffle
            before = ctx.metrics.snapshot()
            pairs.reduce_by_key(lambda a, b: a + b,
                                combine_kernel="sum").collect()
            delta = ctx.metrics.snapshot() - before
            # the co-partitioned reduce moves nothing
            assert delta.shuffles_performed == 0
            spans = [s for s in ctx.tracer.spans()
                     if s.name == "narrow_shuffle"]
        assert spans
        assert all(s.kind == "shuffle" and s.wall_s >= 0.0 for s in spans)
        assert all(s.attrs.get("narrow") is True for s in spans)
        assert all(s.attrs.get("records", 0) >= 0 for s in spans)

    def test_narrow_vectorized_combine_matches_generic(self):
        part = HashPartitioner(3)

        def run(columnar):
            with shuffle_path(columnar), \
                    ClusterContext(num_executors=2) as ctx:
                pairs = ctx.parallelize(
                    [(i % 7, 0.1 * i) for i in range(70)], 3) \
                    .partition_by(part)
                return pairs.reduce_by_key(
                    lambda a, b: a + b, combine_kernel="sum").collect()

        assert pickle.dumps(run(True)) == pickle.dumps(run(False))


class TestExactSizing:
    def test_packed_shuffle_reports_exact_bytes(self):
        # 4 map partitions x up to 5 keys, int keys + float values:
        # exactly 16 bytes per surviving record
        data = [(i % 5, float(i)) for i in range(100)]
        with ClusterContext(num_executors=2) as ctx:
            before = ctx.metrics.snapshot()
            ctx.parallelize(data, 4).reduce_by_key(
                lambda a, b: a + b, combine_kernel="sum").collect()
            delta = ctx.metrics.snapshot() - before
        assert delta.shuffle_bytes == delta.shuffle_records * 16


def _golden_data(key_kind):
    if key_kind == "int":
        return [(i % 13, float(i)) for i in range(300)]
    return [(f"k{i % 13}", float(i)) for i in range(300)]


GOLDEN_OPS = {
    "reduce": lambda rdd: rdd.reduce_by_key(
        lambda a, b: a + b, combine_kernel="sum").collect(),
    "group": lambda rdd: rdd.group_by_key().collect(),
    "cogroup": lambda rdd: rdd.cogroup(
        rdd.map_values(lambda v: -v)).collect(),
}

#: (shuffle_records, shuffle_bytes, shuffle_batches,
#: shuffle_batch_records) per (key kind, op), 300 records in 4
#: partitions over 13 distinct keys; string keys take the tuple path
GOLDEN_COUNTERS = {
    ("int", "reduce"): (52, 832, 16, 52),
    ("int", "group"): (300, 4800, 16, 300),
    ("int", "cogroup"): (600, 9600, 32, 600),
    ("string", "reduce"): (52, 948, 0, 0),
    ("string", "group"): (300, 5469, 0, 0),
    ("string", "cogroup"): (600, 10938, 0, 0),
}


class TestGoldenShuffleCounters:
    """The four logical shuffle counters are pinned, not only compared
    path against path: a change that moved both paths alike would
    otherwise go unnoticed."""

    @pytest.mark.parametrize("key_kind,op_name", sorted(GOLDEN_COUNTERS))
    def test_counters_pinned(self, key_kind, op_name):
        with ClusterContext(num_executors=2) as ctx:
            before = ctx.metrics.snapshot()
            GOLDEN_OPS[op_name](ctx.parallelize(_golden_data(key_kind), 4))
            delta = ctx.metrics.snapshot() - before
        got = (delta.shuffle_records, delta.shuffle_bytes,
               delta.shuffle_batches, delta.shuffle_batch_records)
        assert got == GOLDEN_COUNTERS[key_kind, op_name]
