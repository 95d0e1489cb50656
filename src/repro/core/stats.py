"""Distributed statistics over the valid cells of an ArrayRDD.

Interactive analysis (the paper's declared use case) starts with
``describe()``: one pass computes count/mean/std/min/max via a
mergeable moment state (Chan et al.'s pairwise update). Histograms are
a bincount per chunk plus one merge; quantiles are estimated from a
uniform cell sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.array_rdd import ArrayRDD
from repro.errors import ArrayError


@dataclass(frozen=True)
class Description:
    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
        }


def _merge_moments(a, b):
    """Merge two (count, mean, m2, min, max) moment states."""
    count_a, mean_a, m2_a, min_a, max_a = a
    count_b, mean_b, m2_b, min_b, max_b = b
    if count_a == 0:
        return b
    if count_b == 0:
        return a
    count = count_a + count_b
    delta = mean_b - mean_a
    mean = mean_a + delta * count_b / count
    m2 = m2_a + m2_b + delta * delta * count_a * count_b / count
    return (count, mean, m2, min(min_a, min_b), max(max_a, max_b))


def _moments(part):
    """``[moments]`` of a partition's valid values."""
    state = (0, 0.0, 0.0, np.inf, -np.inf)
    for _chunk_id, chunk in part:
        values = chunk.values().astype(np.float64)
        if values.size == 0:
            continue
        mean = float(values.mean())
        local = (values.size, mean,
                 float(((values - mean) ** 2).sum()),
                 float(values.min()), float(values.max()))
        state = _merge_moments(state, local)
    return [state]


def _counts(edges, part):
    """``[histogram counts]`` of a partition's valid values."""
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for _chunk_id, chunk in part:
        values = chunk.values()
        if values.size:
            counts += np.histogram(values, bins=edges)[0]
    return [counts]


def _sample(sample_fraction, seed, index, part):
    """``[sampled values]`` of partition ``index`` (empty: none)."""
    rng = np.random.default_rng(seed * 100_003 + index)
    out = []
    for _chunk_id, chunk in part:
        values = chunk.values()
        if values.size == 0:
            continue
        if sample_fraction >= 1.0:
            out.append(values)
        else:
            keep = rng.random(values.size) < sample_fraction
            if keep.any():
                out.append(values[keep])
    return [np.concatenate(out)] if out else []


def describe(array: ArrayRDD) -> Description:
    """Count, mean, population std, min, max — one distributed pass."""
    states = array.rdd.map_partitions(_moments).collect()
    merged = (0, 0.0, 0.0, np.inf, -np.inf)
    for state in states:
        merged = _merge_moments(merged, state)
    count, mean, m2, minimum, maximum = merged
    if count == 0:
        return Description(0, float("nan"), float("nan"),
                           float("nan"), float("nan"))
    return Description(count, mean, float(np.sqrt(m2 / count)),
                       minimum, maximum)


def histogram(array: ArrayRDD, bins: int = 10,
              value_range=None) -> tuple:
    """``(counts, edges)`` like numpy's, over the valid cells.

    ``value_range=None`` runs a first pass for the min/max (exactly
    numpy's behaviour).
    """
    if bins <= 0:
        raise ArrayError("bins must be positive")
    if value_range is None:
        summary = describe(array)
        if summary.count == 0:
            return np.zeros(bins, dtype=np.int64), \
                np.linspace(0.0, 1.0, bins + 1)
        value_range = (summary.minimum, summary.maximum)
    lo, hi = float(value_range[0]), float(value_range[1])
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    pieces = array.rdd.map_partitions(partial(_counts, edges)).collect()
    total = np.zeros(bins, dtype=np.int64)
    for piece in pieces:
        total += piece
    return total, edges


def approx_quantiles(array: ArrayRDD, quantiles,
                     sample_fraction: float = 0.1,
                     seed: int = 0) -> np.ndarray:
    """Quantile estimates from a uniform sample of valid cells.

    ``sample_fraction=1.0`` computes exact quantiles (all cells are
    collected — use only on result-sized arrays).
    """
    quantiles = np.atleast_1d(np.asarray(quantiles, dtype=np.float64))
    if ((quantiles < 0) | (quantiles > 1)).any():
        raise ArrayError("quantiles must lie in [0, 1]")
    if not 0 < sample_fraction <= 1:
        raise ArrayError("sample_fraction must be in (0, 1]")
    pieces = array.rdd.map_partitions_with_index(
        partial(_sample, sample_fraction, seed)).collect()
    if not pieces:
        return np.full(quantiles.size, np.nan)
    pooled = np.concatenate(pieces)
    return np.quantile(pooled, quantiles)
