"""Lineage inspection and fault injection utilities.

RDDs already carry their lineage (``RDD.dependencies``); this module adds
driver-side tools used by tests and by the fault-tolerance example
(stage counting lives in :func:`repro.engine.explain.count_stages`):

- :func:`collect_rdds` — every distinct RDD of a DAG, parents first.
- :class:`FaultInjector` — deterministically lose cached blocks and
  shuffle outputs mid-computation, so tests can assert that results are
  rebuilt from lineage instead of silently going wrong.
"""

from __future__ import annotations

import random

from repro.engine.rdd import RDD, _ShuffleStageBase


def collect_rdds(*roots, opaque=None) -> list:
    """Every distinct RDD reachable from ``roots``, parents first: each
    after all of its dependencies, in the order a depth-first descent
    through ``dependencies`` finishes them (the roots' last).

    A node for which ``opaque(node)`` is true is neither listed nor
    descended into; ``opaque`` is asked once per distinct node. The
    walk is iterative, so no lineage depth meets the recursion limit.
    """
    done = {}
    path = [None]          # the nodes being descended, under the roots
    stack = [iter(roots)]  # each one's dependencies still to visit
    while stack:
        for node in stack[-1]:
            if id(node) in done:
                continue
            if opaque is not None and opaque(node):
                done[id(node)] = None
                continue
            path.append(node)
            stack.append(iter(node.dependencies))
            break
        else:
            stack.pop()
            node = path.pop()
            if node is not None:
                done[id(node)] = node
    return [node for node in done.values() if node is not None]


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
