"""The Aggregator framework (Section V-B).

An :class:`Aggregator` is the paper's four-function abstraction:

1. ``initialize()`` — per-chunk state with a default value;
2. ``accumulate(state, values)`` — fold a chunk's valid values in;
3. ``merge(a, b)`` — combine states across chunks;
4. ``evaluate(state)`` — produce the final result.

``accumulate`` receives the *vector* of valid values so built-in
aggregates stay numpy-fast; a scalar-at-a-time user function can be
wrapped with :func:`scalar_aggregator`.

Group-bys (``aggregate_by``, ``window_aggregate``) fold a partition
into one fresh state per group with ``accumulate_groups(values,
starts)`` (values sorted by group, group ``g`` from ``starts[g]``:
numpy's ``reduceat`` convention) and evaluate merged states with
``evaluate_groups``: per state on lists by default, one numpy pass
over a packed state column (:mod:`repro.engine.batches`) for builtins.

The Accumulator — running (prefix) accumulation along an axis — is
:func:`repro.core.accumulate.accumulate_axis`.
"""

from __future__ import annotations

import numpy as np

from repro.engine.batches import PairValues, ScalarValues
from repro.errors import ArrayError


class Aggregator:
    """Base class; subclass or use the builtins below."""

    name = "aggregator"

    def initialize(self):
        raise NotImplementedError

    def accumulate(self, state, values: np.ndarray):
        raise NotImplementedError

    def accumulate_groups(self, values: np.ndarray, starts: np.ndarray):
        """One fresh state per group of ``values`` (sorted by group,
        group ``g`` from ``starts[g]``; none empty): a list here."""
        return [self.accumulate(self.initialize(), group)
                for group in np.split(values, starts[1:])]

    def merge(self, state_a, state_b):
        raise NotImplementedError

    def evaluate(self, state):
        return state

    def evaluate_groups(self, states):
        """``evaluate`` of each state: a float64 array, or a list where
        None leaves a cell invalid (packed states are the builtins')."""
        if isinstance(states, ScalarValues):
            return states.data.astype(np.float64)
        return [self.evaluate(state) for state in states]


class SumAggregator(Aggregator):
    name = "sum"

    def initialize(self):
        return 0.0

    def accumulate(self, state, values):
        return state + float(np.add.reduce(values))

    def accumulate_groups(self, values, starts):
        return ScalarValues(np.add.reduceat(values.astype(float), starts),
                            "float")

    def merge(self, a, b):
        return a + b


class CountAggregator(Aggregator):
    name = "count"

    def initialize(self):
        return 0

    def accumulate(self, state, values):
        return state + int(values.size)

    def accumulate_groups(self, values, starts):
        return ScalarValues(np.diff(starts, append=values.size), "int")

    def merge(self, a, b):
        return a + b


class MinAggregator(Aggregator):
    """The smallest valid value; the state is None until one arrives."""

    name = "min"
    _ufunc, _pick = np.minimum, min

    def initialize(self):
        return None

    def accumulate(self, state, values):
        if values.size == 0:
            return state
        return self.merge(state, float(self._ufunc.reduce(values)))

    def accumulate_groups(self, values, starts):
        return ScalarValues(
            self._ufunc.reduceat(values, starts).astype(float), "float")

    def merge(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return self._pick(a, b)


class MaxAggregator(MinAggregator):
    """The largest valid value; the state is None until one arrives."""

    name = "max"
    _ufunc, _pick = np.maximum, max


class AvgAggregator(Aggregator):
    """Average via a (sum, count) state pair."""

    name = "avg"

    def initialize(self):
        return (0.0, 0)

    def accumulate(self, state, values):
        return (state[0] + float(np.add.reduce(values)),
                state[1] + int(values.size))

    def accumulate_groups(self, values, starts):
        return PairValues(*(kind().accumulate_groups(values, starts)
                            for kind in (SumAggregator, CountAggregator)))

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def evaluate(self, state):
        total, count = state
        return total / count if count else None

    def evaluate_groups(self, states):
        if isinstance(states, PairValues):      # (sum, count) columns
            return states.first.data / states.second.data
        return super().evaluate_groups(states)


def scalar_aggregator(name, initialize, accumulate_one, merge,
                      evaluate=None):
    """Build an Aggregator from a scalar-at-a-time user function.

    This is the user-defined-function abstraction of Section V-B: the
    caller supplies the four functions and never sees vectors.
    """

    class _UserAggregator(Aggregator):
        def initialize(self):
            return initialize()

        def accumulate(self, state, values):
            for value in values:
                state = accumulate_one(state, value)
            return state

        def merge(self, a, b):
            return merge(a, b)

        def evaluate(self, state):
            return evaluate(state) if evaluate is not None else state

        def __reduce__(self):
            # the class is function-local, so pickling rebuilds the
            # aggregator from its user functions instead (the task
            # pickler ships lambdas among them by value)
            return (scalar_aggregator,
                    (name, initialize, accumulate_one, merge, evaluate))

    _UserAggregator.name = name
    return _UserAggregator()


BUILTIN_AGGREGATORS = {
    "sum": SumAggregator,
    "count": CountAggregator,
    "min": MinAggregator,
    "max": MaxAggregator,
    "avg": AvgAggregator,
}


#: builtin aggregators whose ``merge`` is exactly one of the engine's
#: vectorized combine kernels; exact types only — a subclass may
#: override ``merge`` and break the kernel contract
_KERNEL_AGGREGATORS = {
    SumAggregator: "sum",
    CountAggregator: "sum",
    MinAggregator: "min",
    MaxAggregator: "max",
    AvgAggregator: "pair_sum",
}


def combine_kernel_for(agg):
    """The engine ``combine_kernel`` matching ``agg.merge``, or None.

    Declaring a kernel lets the columnar shuffle fold states in one
    numpy pass; it is only valid when ``merge`` equals the kernel's
    scalar fold for every state that packs (min/max states of ``None``
    simply refuse to pack and fall back per record).
    """
    return _KERNEL_AGGREGATORS.get(type(agg))


def resolve_aggregator(agg) -> Aggregator:
    """Accept an Aggregator instance or a builtin name."""
    if isinstance(agg, Aggregator):
        return agg
    if isinstance(agg, str):
        try:
            return BUILTIN_AGGREGATORS[agg]()
        except KeyError:
            raise ArrayError(
                f"unknown aggregator {agg!r}; builtins are "
                f"{sorted(BUILTIN_AGGREGATORS)}"
            ) from None
    raise ArrayError(f"expected Aggregator or name, got {type(agg)}")
