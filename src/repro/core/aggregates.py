"""The Aggregator framework (Section V-B).

An :class:`Aggregator` is the paper's four-function abstraction:

1. ``initialize()`` — per-chunk state with a default value;
2. ``accumulate(state, values)`` — fold a chunk's valid values in;
3. ``merge(a, b)`` — combine states across chunks;
4. ``evaluate(state)`` — produce the final result.

``accumulate`` receives the *vector* of valid values so built-in
aggregates stay numpy-fast; a scalar-at-a-time user function can be
wrapped with :func:`scalar_aggregator`.

Group-bys (``aggregate_by``, ``window_aggregate``) fold a chunk into
one fresh state per group with the grouped form
``accumulate_groups(values, starts)``: values sorted by group, group
``g`` starting at ``starts[g]`` (numpy's ``reduceat`` convention). Its
default runs ``initialize`` and ``accumulate`` per group, so every
Aggregator works; the five builtins override it with one numpy pass.

The Accumulator — running (prefix) accumulation along an axis — is
:func:`repro.core.accumulate.accumulate_axis`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ArrayError


class Aggregator:
    """Base class; subclass or use the builtins below."""

    name = "aggregator"

    def initialize(self):
        raise NotImplementedError

    def accumulate(self, state, values: np.ndarray):
        raise NotImplementedError

    def accumulate_groups(self, values: np.ndarray, starts: np.ndarray
                          ) -> list:
        """One fresh state per group of ``values`` (sorted by group,
        group ``g`` starting at ``starts[g]``; no group is empty)."""
        return [self.accumulate(self.initialize(), group)
                for group in np.split(values, starts[1:])]

    def merge(self, state_a, state_b):
        raise NotImplementedError

    def evaluate(self, state):
        return state


class SumAggregator(Aggregator):
    name = "sum"

    def initialize(self):
        return 0.0

    def accumulate(self, state, values):
        return state + float(np.add.reduce(values))

    def accumulate_groups(self, values, starts):
        return np.add.reduceat(values.astype(float), starts).tolist()

    def merge(self, a, b):
        return a + b


class CountAggregator(Aggregator):
    name = "count"

    def initialize(self):
        return 0

    def accumulate(self, state, values):
        return state + int(values.size)

    def accumulate_groups(self, values, starts):
        return np.diff(starts, append=values.size).tolist()

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
        return self._ufunc.reduceat(values, starts).astype(float).tolist()

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
        return list(zip(SumAggregator().accumulate_groups(values, starts),
                        CountAggregator().accumulate_groups(values,
                                                            starts)))

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def evaluate(self, state):
        total, count = state
        return total / count if count else None


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
