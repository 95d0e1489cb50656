"""Lineage inspection and fault injection utilities.

RDDs already carry their lineage (``RDD.dependencies``); this module adds
driver-side tools used by tests and by the fault-tolerance example:

- :func:`count_shuffle_boundaries` — static DAG analysis (stage
  counting the way Spark's DAGScheduler would).
- :class:`FaultInjector` — deterministically lose cached blocks and
  shuffle outputs mid-computation, so tests can assert that results are
  rebuilt from lineage instead of silently going wrong.
"""

from __future__ import annotations

import random

from repro.engine.rdd import RDD, _ShuffleStageBase


def count_shuffle_boundaries(rdd: RDD) -> int:
    """Number of wide dependencies in the DAG rooted at ``rdd``.

    Narrowed shuffles (parent already partitioned compatibly) do not
    count — they will not move data.
    """
    return len(rdd.wide_slots()) + sum(
        count_shuffle_boundaries(dep) for dep in rdd.dependencies
    )


def collect_rdds(rdd: RDD) -> list:
    """All distinct RDDs in the DAG, root last (topological-ish)."""
    seen = {}

    def visit(node):
        if node.rdd_id in seen:
            return
        for dep in node.dependencies:
            visit(dep)
        seen[node.rdd_id] = node

    visit(rdd)
    return list(seen.values())


class FaultInjector:
    """Deterministic executor-failure simulation.

    ``kill_fraction`` of the cached blocks and of the shuffle RDDs in a
    DAG are hit each time :meth:`strike` is called; a hit shuffle RDD
    loses the map output of every wide parent slot.
    """

    def __init__(self, context, seed: int = 0):
        self._context = context
        self._rng = random.Random(seed)

    def strike(self, rdd: RDD, kill_fraction: float = 0.5) -> int:
        """Lose cached blocks and shuffle map outputs below ``rdd``;
        returns how many were lost."""
        lost = 0
        for node in collect_rdds(rdd):
            for index in range(node.num_partitions):
                if self._context.cache.contains(node.rdd_id, index):
                    if self._rng.random() < kill_fraction:
                        if self._context.fail_partition(node, index):
                            lost += 1
            if isinstance(node, _ShuffleStageBase):
                if self._rng.random() < kill_fraction:
                    lost += node.invalidate_shuffle()
        return lost
