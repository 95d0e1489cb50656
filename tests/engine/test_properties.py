"""Property-based tests: RDD operations agree with plain-Python
semantics regardless of data and partitioning."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ClusterContext, HashPartitioner


datasets = st.lists(st.integers(-50, 50), min_size=0, max_size=60)
pair_datasets = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-20, 20)),
    min_size=0, max_size=60)
partition_counts = st.integers(1, 7)


def make_ctx():
    return ClusterContext(num_executors=2, default_parallelism=2)


@settings(max_examples=40, deadline=None)
@given(data=datasets, parts=partition_counts)
def test_collect_preserves_order(data, parts):
    ctx = make_ctx()
    assert ctx.parallelize(data, parts).collect() == data


@settings(max_examples=40, deadline=None)
@given(data=datasets, parts=partition_counts)
def test_map_filter_compose(data, parts):
    ctx = make_ctx()
    got = ctx.parallelize(data, parts) \
             .map(lambda x: x * 2) \
             .filter(lambda x: x > 0) \
             .collect()
    assert got == [x * 2 for x in data if x * 2 > 0]


@settings(max_examples=40, deadline=None)
@given(data=datasets, parts=partition_counts)
def test_count_sum_match(data, parts):
    ctx = make_ctx()
    rdd = ctx.parallelize(data, parts)
    assert rdd.count() == len(data)
    assert rdd.sum() == sum(data)


@settings(max_examples=40, deadline=None)
@given(data=pair_datasets, parts=partition_counts)
def test_reduce_by_key_matches_counter(data, parts):
    ctx = make_ctx()
    got = dict(ctx.parallelize(data, parts)
               .reduce_by_key(lambda a, b: a + b).collect())
    expected = {}
    for key, value in data:
        expected[key] = expected.get(key, 0) + value
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(data=pair_datasets, parts=partition_counts,
       target=st.integers(1, 6))
def test_partition_by_is_content_preserving(data, parts, target):
    ctx = make_ctx()
    placed = ctx.parallelize(data, parts) \
                .partition_by(HashPartitioner(target))
    assert Counter(placed.collect()) == Counter(data)
    for index, records in enumerate(ctx.run_job(placed, list)):
        for key, _value in records:
            assert hash(key) % target == index


@settings(max_examples=40, deadline=None)
@given(left=pair_datasets, right=pair_datasets)
def test_join_matches_nested_loop(left, right):
    ctx = make_ctx()
    got = Counter(ctx.parallelize(left, 3)
                  .join(ctx.parallelize(right, 2)).collect())
    expected = Counter(
        (lk, (lv, rv))
        for lk, lv in left for rk, rv in right if lk == rk)
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(left=pair_datasets, right=pair_datasets)
def test_full_outer_join_covers_all_keys(left, right):
    ctx = make_ctx()
    got = ctx.parallelize(left, 2) \
             .full_outer_join(ctx.parallelize(right, 3)).collect()
    got_keys = {k for k, _v in got}
    assert got_keys == {k for k, _v in left} | {k for k, _v in right}
    # every left value appears with some partner
    left_seen = Counter(
        (k, pair[0]) for k, pair in got if pair[0] is not None)
    for key, value in left:
        assert left_seen[(key, value)] >= 1


@settings(max_examples=30, deadline=None)
@given(data=datasets, parts=partition_counts)
def test_cache_changes_nothing(data, parts):
    ctx = make_ctx()
    rdd = ctx.parallelize(data, parts).map(lambda x: x + 1).cache()
    first = rdd.collect()
    second = rdd.collect()
    assert first == second == [x + 1 for x in data]
