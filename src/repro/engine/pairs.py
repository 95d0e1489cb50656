"""Pair-RDD operations: the key-value half of the RDD API.

ArrayRDD inherits PairRDD in the paper (every record is
``(chunk_id, chunk)``), so these operations carry all of Spangle's data
movement. Everything funnels through :class:`ShuffledRDD` /
:class:`CoGroupedRDD`, which skip the shuffle when the inputs are already
co-partitioned — the mechanism behind the paper's local-join optimization.

Shuffles materialize stage-parallel: the
:class:`~repro.engine.scheduler.StageScheduler` runs one map task per
parent partition (concurrently under ``use_threads``), each building its
own per-reducer buckets, merged once in parent-partition order so every
operation below returns byte-identical results in serial and threaded
execution.
"""

from __future__ import annotations

from repro.engine.partitioner import HashPartitioner, Partitioner
from repro.engine.rdd import (
    RDD,
    CoGroupedRDD,
    ShuffledRDD,
    _append_value,
    _extend_list,
    _identity,
    _singleton_list,
)


def _emit_inner(groups):
    left_values, right_values = groups
    return [(lv, rv) for lv in left_values for rv in right_values]


def _emit_left_outer(groups):
    left_values, right_values = groups
    if not right_values:
        return [(lv, None) for lv in left_values]
    return [(lv, rv) for lv in left_values for rv in right_values]


def _emit_full_outer(groups):
    left_values, right_values = groups
    if not left_values:
        return [(None, rv) for rv in right_values]
    if not right_values:
        return [(lv, None) for lv in left_values]
    return [(lv, rv) for lv in left_values for rv in right_values]


def _default_partitioner(rdd: RDD, partitioner) -> Partitioner:
    if partitioner is not None:
        return partitioner
    if rdd.partitioner is not None:
        return rdd.partitioner
    return HashPartitioner(rdd.num_partitions)


def combine_by_key(rdd: RDD, create_combiner, merge_value, merge_combiners,
                   partitioner=None, map_side_combine=True,
                   combine_kernel=None) -> RDD:
    """Generic shuffle-based aggregation (Spark's ``combineByKey``).

    ``combine_kernel`` ("sum" | "min" | "max" | "pair_sum") opts the
    shuffle into the vectorized columnar combine; declaring it promises
    that ``create_combiner`` is the identity and that both merge
    functions equal the kernel's scalar fold (see :class:`ShuffledRDD`).
    """
    partitioner = _default_partitioner(rdd, partitioner)
    return ShuffledRDD(rdd, partitioner, create_combiner, merge_value,
                       merge_combiners, map_side_combine=map_side_combine,
                       combine_kernel=combine_kernel)


def partition_by(rdd: RDD, partitioner: Partitioner) -> RDD:
    """Redistribute records so equal keys land in the same partition.

    A no-op (identity RDD, no shuffle) when the RDD already has an equal
    partitioner.
    """
    if rdd.partitioner is not None and rdd.partitioner == partitioner:
        return rdd
    grouped = ShuffledRDD(rdd, partitioner, _singleton_list,
                          _append_value, _extend_list,
                          map_side_combine=False)
    flattened = grouped.flat_map_values(_identity)
    flattened.partitioner = partitioner
    return flattened.rename("partition_by")


def cogroup(rdds, partitioner=None) -> RDD:
    """Group two or more pair-RDDs by key."""
    rdds = list(rdds)
    if partitioner is None:
        for rdd in rdds:
            if rdd.partitioner is not None:
                partitioner = rdd.partitioner
                break
    if partitioner is None:
        partitioner = HashPartitioner(
            max(rdd.num_partitions for rdd in rdds)
        )
    return CoGroupedRDD(rdds, partitioner)


def join(left: RDD, right: RDD, partitioner=None) -> RDD:
    """Inner join: ``(key, (left_value, right_value))`` per match pair."""
    grouped = cogroup([left, right], partitioner)
    return grouped.flat_map_values(_emit_inner).rename("join")


def left_outer_join(left: RDD, right: RDD, partitioner=None) -> RDD:
    """``(key, (left_value, right_value_or_None))``."""
    grouped = cogroup([left, right], partitioner)
    return grouped.flat_map_values(
        _emit_left_outer).rename("left_outer_join")


def full_outer_join(left: RDD, right: RDD, partitioner=None) -> RDD:
    """``(key, (left_or_None, right_or_None))`` covering both sides.

    This is what Spangle's *or-join* rides on: a cell valid on either
    side survives.
    """
    grouped = cogroup([left, right], partitioner)
    return grouped.flat_map_values(
        _emit_full_outer).rename("full_outer_join")
