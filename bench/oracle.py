"""Dense-numpy references for every benchmark op.

Each function recomputes an op's answer from the *generated inputs*
with plain numpy, in a formulation independent of the program's (a
per-cell scatter where the program reshapes, an edge-list power
iteration where the program walks blocked CSR, ``a @ b`` where it
joins sparse blocks). ``matches`` is the one comparison rule: exact
for integers and anything computed in integer-valued floats, a
relative tolerance fixed beforehand for float reductions whose
summation order differs.

A mismatch, an exception, a watchdog timeout or a leak after
``shutdown()`` each count as one failed op (see ``harness``).
"""

from __future__ import annotations

import random

import numpy as np

#: float reductions (sums/means over up to ~1e7 cells, different
#: summation order than the program) must agree to this relative error
RTOL = 1e-9
#: PageRank ranks against the edge-list power iteration
PAGERANK_ATOL = 1e-10


def matches(got, expected) -> bool:
    """Does an op's result equal its reference?

    ``expected`` is a reference value, an :class:`Exact` / :class:`Close`
    array, a tuple of those, or a callable that judges the result
    itself (used where the reference depends on the program's output,
    e.g. accuracy recomputed from the fitted weights).
    """
    if callable(expected):
        return bool(expected(got))
    if isinstance(expected, dict):
        if not isinstance(got, dict) or got.keys() != expected.keys():
            return False
        keys = list(expected)
        return bool(np.allclose([got[k] for k in keys],
                                [expected[k] for k in keys],
                                rtol=RTOL, atol=0.0))
    if isinstance(expected, (tuple, list)):
        return (isinstance(got, (tuple, list))
                and len(got) == len(expected)
                and all(matches(g, e) for g, e in zip(got, expected)))
    if isinstance(expected, Exact):
        return bool(np.array_equal(np.asarray(got), expected.value))
    if isinstance(expected, Close):
        got = np.asarray(got)
        return bool(got.shape == np.shape(expected.value)
                    and np.allclose(got, expected.value,
                                    rtol=expected.rtol,
                                    atol=expected.atol))
    if isinstance(expected, (int, np.integer, bool, np.bool_)):
        return bool(got == expected)
    return bool(np.isclose(got, expected, rtol=RTOL, atol=0.0))


class Exact:
    """Reference array that must be reproduced cell for cell."""

    def __init__(self, value):
        self.value = np.asarray(value)


class Close:
    """Reference array compared under explicit tolerances."""

    def __init__(self, value, rtol: float = RTOL, atol: float = 0.0):
        self.value = np.asarray(value)
        self.rtol = rtol
        self.atol = atol


# ----------------------------------------------------------------------
# raster_scan — SS-DB Q1..Q5 over the stacked scenes
# ----------------------------------------------------------------------

def _in_box(valid: np.ndarray, box) -> np.ndarray:
    if box is None:
        return valid
    lo, hi = box
    inside = np.zeros_like(valid)
    inside[tuple(slice(a, b + 1) for a, b in zip(lo, hi))] = True
    return valid & inside


def q1_average(values, valid, box=None) -> float:
    sel = _in_box(valid, box)
    return float(values[sel].mean())


def _window_stats(values, valid, window: int):
    """Per-window ``(keys, sums, counts)`` by per-cell scatter.

    Keys are ``(image, x // window, y // window)`` over global
    coordinates, matching the query module's window naming.
    """
    xs, ys, imgs = np.nonzero(valid)
    rows = -(-valid.shape[0] // window)
    cols = -(-valid.shape[1] // window)
    linear = (imgs * rows + xs // window) * cols + ys // window
    size = valid.shape[2] * rows * cols
    counts = np.bincount(linear, minlength=size)
    sums = np.bincount(linear, weights=values[xs, ys, imgs],
                       minlength=size)
    live = np.nonzero(counts)[0]
    keys = [(int(k // (rows * cols)), int(k // cols % rows),
             int(k % cols)) for k in live]
    return keys, sums[live], counts[live]


def q2_regrid(values, valid, grid: int, box=None) -> dict:
    keys, sums, counts = _window_stats(values, _in_box(valid, box), grid)
    return dict(zip(keys, (sums / counts).tolist()))


def q3_conditional_average(values, valid, threshold, box=None) -> float:
    sel = _in_box(valid, box) & (values > threshold)
    return float(values[sel].mean())


def q4_polygons(values, valid, filter_threshold, count_threshold,
                box=None) -> int:
    sel = _in_box(valid, box) & (values > filter_threshold) \
        & (values > count_threshold)
    return int(sel.sum())


def calibrated_sum(values, valid, gain, offset, box) -> float:
    sel = _in_box(valid, box)
    return float((values[sel] * gain + offset).sum())


def q5_density(valid, window: int, min_count: int, box=None) -> int:
    sel = _in_box(valid, box)
    _keys, _sums, counts = _window_stats(sel.astype(np.float64), sel,
                                         window)
    return int((counts > min_count).sum())


# ----------------------------------------------------------------------
# pagerank_zipf — edge-list power iteration
# ----------------------------------------------------------------------

def pagerank(edges: np.ndarray, num_vertices: int, iterations: int,
             damping: float = 0.85) -> np.ndarray:
    """Basic power method on the deduplicated edge list.

    Out-degrees count *every* listed edge (duplicates included), which
    is what the program's ``w = 1 / outdeg`` vector is built from; the
    adjacency itself is 0/1, so duplicate edges contribute once.
    """
    n = num_vertices
    out_degree = np.bincount(edges[:, 0], minlength=n).astype(np.float64)
    unique = np.unique(edges[:, 1] * n + edges[:, 0])
    dst, src = unique // n, unique % n
    with np.errstate(divide="ignore"):
        w = np.where(out_degree > 0, 1.0 / out_degree, 0.0)
    p = np.full(n, 1.0 / n)
    for _ in range(iterations):
        p = damping * np.bincount(dst, weights=(w * p)[src],
                                  minlength=n) + (1.0 - damping) / n
    return p


# ----------------------------------------------------------------------
# shuffle_process
# ----------------------------------------------------------------------

def collapse_last_axis(values, valid):
    """``aggregate_by`` over the leading axes: ``(sums, any_valid)``."""
    return np.where(valid, values, 0.0).sum(axis=-1), valid.any(axis=-1)


def and_combine_sum(left, left_valid, right, right_valid) -> float:
    both = left_valid & right_valid
    return float((left[both] + right[both]).sum())


# ----------------------------------------------------------------------
# lr_sgd
# ----------------------------------------------------------------------

def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def logistic_gradient(split: dict, num_features: int, x: np.ndarray):
    """Full-batch ``Xᵀ(σ(Xx) − y)`` from the COO triplets."""
    rows, cols, values = split["rows"], split["cols"], split["values"]
    z = np.bincount(rows, weights=values * x[cols],
                    minlength=split["labels"].size)
    error = sigmoid(z) - split["labels"]
    return np.bincount(cols, weights=values * error[rows],
                       minlength=num_features)


def sgd_fit(split: dict, num_features: int, num_partitions: int,
            chunk_rows: int, chunks_per_step: int, step_size: float,
            tolerance: float, max_iterations: int):
    """Mini-batch SGD replayed on the COO triplets: ``(steps, weights)``.

    Pins the fit per seed: the same inputs must give the same number
    of steps and (to summation order) the same weights on every
    commit. The batches follow the sampling rule ``DistributedSamples``
    documents — partition ``p`` owns the contiguous rows
    ``linspace(0, n, P + 1)[p:p + 2]`` cut into ``chunk_rows``-row
    chunks, and at step ``t`` draws ``chunks_per_step`` of them with
    ``random.Random(7919 * t + p)`` (the model's default seed 0). A
    change to that rule changes what a seed trains and has to come
    with a change to this replay.
    """
    order = np.argsort(split["rows"], kind="stable")
    rows, cols = split["rows"][order], split["cols"][order]
    values, labels = split["values"][order], split["labels"]
    num_rows = labels.size
    first_entry = np.searchsorted(rows, np.arange(num_rows + 1))
    bounds = np.linspace(0, num_rows, num_partitions + 1).astype(np.int64)
    x = np.zeros(num_features)
    for step in range(max_iterations):
        picked = []
        for p_id in range(num_partitions):
            lo, hi = int(bounds[p_id]), int(bounds[p_id + 1])
            chunks = -(-(hi - lo) // chunk_rows)
            draw = random.Random(7919 * step + p_id).sample(
                range(chunks), min(chunks_per_step, chunks))
            picked += [(lo + r_id * chunk_rows,
                        min(lo + (r_id + 1) * chunk_rows, hi))
                       for r_id in draw]
        batch = np.concatenate([np.arange(a, b) for a, b in picked])
        entries = np.concatenate([np.arange(first_entry[a], first_entry[b])
                                  for a, b in picked])
        r, c, v = rows[entries], cols[entries], values[entries]
        z = np.bincount(r, weights=v * x[c], minlength=num_rows)
        error = np.zeros(num_rows)
        error[batch] = sigmoid(z[batch]) - labels[batch]
        gradient = np.bincount(c, weights=v * error[r],
                               minlength=num_features)
        moved = step_size * gradient / batch.size
        x = x - moved
        if np.abs(moved).max() < tolerance:
            break
    return step + 1, x


def accuracy(split: dict, x: np.ndarray) -> float:
    z = np.bincount(split["rows"],
                    weights=split["values"] * x[split["cols"]],
                    minlength=split["labels"].size)
    return float(((z >= 0) == (split["labels"] >= 0.5)).mean())
