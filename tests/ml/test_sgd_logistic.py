"""Tests for Eq.-2 chunking, parallel SGD sampling, logistic regression."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ClusterContext
from repro.errors import (
    ArrayError,
    ConvergenceError,
    ShapeMismatchError,
    SpangleError,
)
from repro.ml import DistributedSamples, LogisticRegression, SampleChunk
from repro.ml.sgd import _sigmoid, chunk_id, partition_of, row_chunk_of


@pytest.fixture()
def ctx():
    return ClusterContext(num_executors=4, default_parallelism=4)


def separable_dataset(ns=2000, nf=16, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(ns, nf))
    true_w = rng.normal(size=nf)
    labels = (X @ true_w > 0).astype(np.float64)
    flips = rng.random(ns) < noise
    labels[flips] = 1.0 - labels[flips]
    rows, cols = np.nonzero(X)
    return rows, cols, X[rows, cols], labels, X


class TestEquation2:
    def test_chunk_ids_unique(self):
        seen = set()
        for p in range(8):
            for r in range(100):
                cid = chunk_id(8, r, p)
                assert cid not in seen
                seen.add(cid)

    def test_reversal(self):
        for p in range(8):
            for r in range(50):
                cid = chunk_id(8, r, p)
                assert partition_of(cid, 8) == p
                assert row_chunk_of(cid, 8) == r

    def test_chunks_land_on_their_partitions(self, ctx):
        rows, cols, vals, labels, _X = separable_dataset(seed=1)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=100,
            num_partitions=4)
        for index, records in enumerate(ctx.run_job(samples.rdd, list)):
            for cid, _chunk in records:
                assert partition_of(cid, 4) == index

    def test_every_row_stored_once(self, ctx):
        rows, cols, vals, labels, _X = separable_dataset(ns=777, seed=2)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=64)
        total = samples.rdd.map(lambda kv: kv[1].num_rows).sum()
        assert total == 777
        assert samples.total_rows == 777
        assert samples.nnz() == len(vals)


class TestSampleChunk:
    def _chunk(self, seed=3):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 8))
        rows, cols = np.nonzero(X)
        labels = rng.integers(0, 2, 20).astype(np.float64)
        return SampleChunk(rows, cols, X[rows, cols], labels, 20), X

    def test_dot(self):
        chunk, X = self._chunk()
        x = np.arange(8, dtype=np.float64)
        assert np.allclose(chunk.dot(x), X @ x)

    def test_t_dot_opt1_equals_materialized(self):
        chunk, X = self._chunk(seed=4)
        e = np.random.default_rng(5).random(20)
        fast = chunk.t_dot(e, 8)
        slow = chunk.t_dot_materialized(e, 8)
        assert np.allclose(fast, X.T @ e)
        assert np.allclose(slow, X.T @ e)

    def test_validation(self):
        with pytest.raises(ShapeMismatchError):
            SampleChunk([0], [0, 1], [1.0], [1.0], 1)
        with pytest.raises(ShapeMismatchError):
            SampleChunk([0], [0], [1.0], [1.0, 0.0], 1)

    @pytest.mark.parametrize("rows,bad", [([0, -1, 1], -1), ([2, 0, 3], 3),
                                          ([-4, 7, 1], -4), ([3], 3)])
    def test_row_ids_validated(self, rows, bad):
        with pytest.raises(ShapeMismatchError, match=f"row {bad} outside"):
            SampleChunk(rows, [0] * len(rows), [1.0] * len(rows),
                        [0.0, 1.0, 0.0], 3)

    def test_chunk_rows_validation(self, ctx):
        with pytest.raises(ArrayError):
            DistributedSamples.from_coo(ctx, [0], [0], [1.0], [1.0], 4,
                                        chunk_rows=0)

    @pytest.mark.parametrize("rows,cols,values,match", [
        ([0, 1], [-1, 0], [1.0, 2.0], r"col -1 outside \[0, 4\)"),
        ([0, 1], [0, 9], [1.0, 2.0], r"col 9 outside \[0, 4\)"),
        ([0, 5], [0, 1], [1.0, 2.0], r"row 5 outside \[0, 2\)"),
        ([2, 0], [0, 1], [1.0, 2.0], r"row 2 outside \[0, 2\)"),
        ([-3, 1], [0, 1], [1.0, 2.0], r"row -3 outside \[0, 2\)"),
        ([0, 1], [0], [1.0, 2.0], "share a length"),
        ([0, 1], [0, 1], [1.0], "share a length"),
    ], ids=["negative-col", "col-past-features", "row-past-labels",
            "unsorted-row-past-labels", "negative-row", "short-cols",
            "short-values"])
    def test_from_coo_validates_indices(self, ctx, rows, cols, values,
                                        match):
        with pytest.raises(ShapeMismatchError, match=match):
            DistributedSamples.from_coo(ctx, rows, cols, values,
                                        [0.0, 1.0], 4, chunk_rows=1)


@st.composite
def coo_chunks(draw):
    """``(num_rows, num_features, rows, cols, vals)`` in arbitrary order.

    Rows come from a few picked row IDs, so leading, interior and
    trailing empty rows, ``nnz = 0`` and duplicate ``(row, col)``
    entries are all common draws.
    """
    num_rows = draw(st.integers(0, 40))
    num_features = draw(st.integers(1, 12))
    if num_rows == 0:
        return 0, num_features, [], [], []
    used = draw(st.lists(st.integers(0, num_rows - 1), min_size=1,
                         max_size=6))
    entries = draw(st.lists(
        st.tuples(st.sampled_from(used),
                  st.integers(0, num_features - 1),
                  st.floats(-8, 8, allow_nan=False)),
        max_size=60))
    rows, cols, vals = (list(t) for t in zip(*entries)) if entries \
        else ([], [], [])
    return num_rows, num_features, rows, cols, vals


@settings(max_examples=150, deadline=None)
@given(case=coo_chunks(), seed=st.integers(0, 2**16))
@example(case=(8, 3, [5, 2, 2, 5, 2], [1, 0, 0, 2, 1],
               [1.0, 2.0, -3.0, 4.0, 0.5]), seed=0)
@example(case=(5, 4, [], [], []), seed=0)
@example(case=(0, 4, [], [], []), seed=0)
def test_kernels_match_dense_numpy(case, seed):
    num_rows, num_features, rows, cols, vals = case
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, num_rows).astype(np.float64)
    chunk = SampleChunk(rows, cols, vals, labels, num_rows)

    X = np.zeros((num_rows, num_features))
    np.add.at(X, (rows, cols), vals)      # duplicates sum, as in CSR
    x = rng.normal(size=num_features)
    e = rng.normal(size=num_rows)

    assert chunk.indptr.shape == (num_rows + 1,)
    assert np.allclose(chunk.dot(x), X @ x, atol=1e-9)
    assert np.allclose(chunk.t_dot(e, num_features), X.T @ e, atol=1e-9)
    base = rng.normal(size=num_features)
    out = base.copy()
    assert chunk.add_t_dot(out, e) is out
    assert np.allclose(out, base + X.T @ e, atol=1e-9)
    assert np.allclose(chunk.t_dot_materialized(e, num_features),
                       chunk.t_dot(e, num_features), atol=1e-9)

    # CSR keeps the stably row-sorted input, nothing more
    order = np.argsort(rows, kind="stable")
    assert np.array_equal(chunk.row_local, rows[order])
    assert np.array_equal(chunk.col, cols[order])
    assert np.array_equal(chunk.val, vals[order])
    stored = [getattr(chunk, name) for name in SampleChunk.__slots__]
    assert chunk.nbytes == sum(a.nbytes for a in stored
                               if isinstance(a, np.ndarray))

    clone = pickle.loads(pickle.dumps(chunk))
    assert clone.num_rows == chunk.num_rows
    for name in SampleChunk.__slots__:
        assert np.array_equal(getattr(clone, name), getattr(chunk, name))
    assert np.array_equal(clone.dot(x), chunk.dot(x))


def _piecewise_sigmoid(z):
    """The masked two-branch form ``_sigmoid`` replaced, verbatim."""
    out = np.empty_like(z, dtype=np.float64)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    ez = np.exp(z[~positive])
    out[~positive] = ez / (1.0 + ez)
    return out


def test_sigmoid_bit_identical_to_piecewise_form():
    rng = np.random.default_rng(19)
    z = np.concatenate([
        rng.normal(size=5000), rng.normal(scale=40.0, size=5000),
        [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]])
    assert np.array_equal(_sigmoid(z), _piecewise_sigmoid(z),
                          equal_nan=True)


class TestSampling:
    def test_gradient_is_deterministic_per_seed(self, ctx):
        rows, cols, vals, labels, _X = separable_dataset(seed=6)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=128)
        x = np.zeros(16)
        g1, n1 = samples.sampled_gradient(x, step=3, seed=11)
        g2, n2 = samples.sampled_gradient(x, step=3, seed=11)
        assert np.allclose(g1, g2) and n1 == n2

    def test_different_steps_sample_differently(self, ctx):
        rows, cols, vals, labels, _X = separable_dataset(seed=7)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=64)
        x = np.random.default_rng(8).random(16)
        g1, _ = samples.sampled_gradient(x, step=0)
        g2, _ = samples.sampled_gradient(x, step=1)
        assert not np.allclose(g1, g2)

    def test_sampling_shuffles_nothing(self, ctx):
        rows, cols, vals, labels, _X = separable_dataset(seed=9)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=64).cache()
        samples.nnz()
        before = ctx.metrics.snapshot()
        samples.sampled_gradient(np.zeros(16), step=0)
        delta = ctx.metrics.snapshot() - before
        assert delta.shuffle_bytes == 0
        assert delta.shuffles_performed == 0

    def test_opt1_matches_non_opt1(self, ctx):
        rows, cols, vals, labels, _X = separable_dataset(seed=10)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=64)
        x = np.random.default_rng(11).random(16)
        fast, _ = samples.sampled_gradient(x, step=2, opt1=True)
        slow, _ = samples.sampled_gradient(x, step=2, opt1=False)
        assert np.allclose(fast, slow)

    def test_from_generator(self, ctx):
        def gen(p_id):
            rng = np.random.default_rng(p_id)
            for _ in range(3):
                X = rng.normal(size=(10, 6))
                r, c = np.nonzero(X)
                labels = rng.integers(0, 2, 10).astype(float)
                yield SampleChunk(r, c, X[r, c], labels, 10)

        samples = DistributedSamples.from_generator(ctx, 4, gen, 6)
        assert samples.total_rows == 120
        assert samples.chunks_per_partition == [3, 3, 3, 3]
        grad, count = samples.sampled_gradient(np.zeros(6), step=0)
        assert count == 40  # one chunk per partition


class TestBackendIndependence:
    """Serial, thread and process contexts give the same bits: sample
    chunks cross the pickle boundary to forked workers and back."""

    MODES = {
        "serial": dict(use_threads=False, backend="thread"),
        "thread": dict(use_threads=True, backend="thread"),
        "process": dict(use_threads=False, backend="process"),
    }

    @staticmethod
    def _train(mode):
        rows, cols, vals, labels, _X = separable_dataset(ns=700, seed=18)
        with ClusterContext(num_executors=2, default_parallelism=4,
                            **TestBackendIndependence.MODES[mode]) as ctx:
            samples = DistributedSamples.from_coo(
                ctx, rows, cols, vals, labels, 16, chunk_rows=64).cache()
            grad, count = samples.sampled_gradient(
                np.linspace(-1.0, 1.0, 16), step=4, chunks_per_step=2)
            lr = LogisticRegression(max_iterations=20, tolerance=0.0,
                                    chunks_per_step=2, seed=3)
            lr.fit(samples)
            return grad, count, lr.history.iterations, lr.weights.data

    def test_sgd_identical_on_every_backend(self):
        serial = self._train("serial")
        assert serial[2] == 20
        for mode in ("thread", "process"):
            grad, count, steps, weights = self._train(mode)
            assert np.array_equal(grad, serial[0]), mode
            assert count == serial[1] and steps == serial[2], mode
            assert np.array_equal(weights, serial[3]), mode


class TestDenseOracle:
    """Every chunk sampled, the distributed gradient and one SGD step
    equal their dense numpy forms on every backend. Partition 1 holds
    no chunks; rows 0, 7, 20 and 49 (chunk edges) hold no entries."""

    NUM_FEATURES = 6
    #: rows of each chunk, per partition
    LAYOUT = [[8, 8, 4], [], [8, 7], [15]]
    STEP_SIZE = 0.35

    def _dataset(self):
        rng = np.random.default_rng(21)
        num_rows = sum(map(sum, self.LAYOUT))
        X = rng.normal(size=(num_rows, self.NUM_FEATURES))
        X[rng.random(X.shape) < 0.5] = 0.0
        X[[0, 7, 20, num_rows - 1]] = 0.0
        labels = rng.integers(0, 2, num_rows).astype(np.float64)
        chunks, start = [], 0
        for sizes in self.LAYOUT:
            chunks.append([])
            for size in sizes:
                block = X[start:start + size]
                r, c = np.nonzero(block)
                chunks[-1].append(SampleChunk(
                    r, c, block[r, c], labels[start:start + size], size))
                start += size
        return X, labels, chunks

    @pytest.mark.parametrize("opt1", [True, False])
    @pytest.mark.parametrize("mode", sorted(TestBackendIndependence.MODES))
    def test_gradient_and_first_step(self, mode, opt1):
        X, y, chunks = self._dataset()
        x = np.linspace(-1.0, 1.0, self.NUM_FEATURES)
        with ClusterContext(num_executors=2, default_parallelism=4,
                            **TestBackendIndependence.MODES[mode]) as ctx:
            samples = DistributedSamples.from_generator(
                ctx, len(chunks), lambda p_id: chunks[p_id],
                self.NUM_FEATURES)
            every = max(samples.chunks_per_partition)
            grad, count = samples.sampled_gradient(
                x, step=0, chunks_per_step=every, opt1=opt1)
            lr = LogisticRegression(step_size=self.STEP_SIZE,
                                    max_iterations=1,
                                    chunks_per_step=every, opt1=opt1)
            lr.fit(samples)
        assert samples.chunks_per_partition == [3, 0, 2, 1]
        assert count == y.size
        sigmoid = 1.0 / (1.0 + np.exp(-(X @ x)))
        assert np.allclose(grad, X.T @ (sigmoid - y), atol=1e-12)
        # from x = 0 every prediction is sigmoid(0) = 1/2
        first_step = -self.STEP_SIZE * (X.T @ (0.5 - y)) / y.size
        assert np.allclose(lr.weights.data, first_step, atol=1e-12)
        assert lr.history.iterations == 1


class TestLogisticRegression:
    def test_step_size_must_be_positive(self):
        for step_size in (0, 0.0, -0.5):
            with pytest.raises(SpangleError, match="step_size"):
                LogisticRegression(step_size=step_size)

    @pytest.mark.parametrize("chunks_per_step", [0, -1])
    def test_chunks_per_step_must_be_positive(self, chunks_per_step):
        with pytest.raises(SpangleError, match="chunks_per_step"):
            LogisticRegression(chunks_per_step=chunks_per_step)

    def test_learns_separable_data(self, ctx):
        rows, cols, vals, labels, X = separable_dataset(seed=12)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=128)
        lr = LogisticRegression(max_iterations=200, chunks_per_step=2)
        lr.fit(samples)
        assert lr.accuracy(samples) > 0.9
        assert lr.history.iterations > 0
        assert lr.history.total_time_s > 0

    @pytest.mark.parametrize("opt1,opt2", [(True, True), (False, True),
                                           (True, False), (False, False)])
    def test_all_optimization_variants_learn(self, ctx, opt1, opt2):
        rows, cols, vals, labels, _X = separable_dataset(ns=1200,
                                                         seed=13)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=128)
        lr = LogisticRegression(max_iterations=80, opt1=opt1, opt2=opt2,
                                chunks_per_step=2, seed=5)
        lr.fit(samples)
        assert lr.accuracy(samples) > 0.85

    def test_variants_agree_exactly(self, ctx):
        """opt1/opt2 are performance knobs — results must be identical."""
        rows, cols, vals, labels, _X = separable_dataset(ns=800, seed=14)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=128)
        weights = []
        for opt1, opt2 in [(True, True), (False, False)]:
            lr = LogisticRegression(max_iterations=30, opt1=opt1,
                                    opt2=opt2, seed=7)
            lr.fit(samples)
            weights.append(lr.weights.data)
        assert np.allclose(weights[0], weights[1])

    def test_tolerance_stops_early(self, ctx):
        rows, cols, vals, labels, _X = separable_dataset(ns=600, seed=15)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=600)
        lr = LogisticRegression(step_size=1e-6, tolerance=1e-3,
                                max_iterations=500)
        lr.fit(samples)
        assert lr.history.iterations < 500

    def test_predict_api(self, ctx):
        rows, cols, vals, labels, X = separable_dataset(seed=16)
        samples = DistributedSamples.from_coo(
            ctx, rows, cols, vals, labels, 16, chunk_rows=128)
        lr = LogisticRegression(max_iterations=100, chunks_per_step=2)
        lr.fit(samples)
        probs = lr.predict_proba(X[:10])
        assert ((probs >= 0) & (probs <= 1)).all()
        preds = lr.predict(X[:10])
        assert set(np.unique(preds)) <= {0, 1}

    def test_unfitted_raises(self):
        lr = LogisticRegression()
        with pytest.raises(ConvergenceError):
            lr.predict(np.zeros((1, 4)))

    def test_train_test_generalization(self, ctx):
        rows, cols, vals, labels, _X = separable_dataset(ns=3000,
                                                         seed=17)
        # 80/20 row split, like the paper's datasets
        cut = 2400
        train_sel = rows < cut
        train = DistributedSamples.from_coo(
            ctx, rows[train_sel], cols[train_sel], vals[train_sel],
            labels[:cut], 16, chunk_rows=128)
        test = DistributedSamples.from_coo(
            ctx, rows[~train_sel] - cut, cols[~train_sel],
            vals[~train_sel], labels[cut:], 16, chunk_rows=128)
        lr = LogisticRegression(max_iterations=150, chunks_per_step=2)
        lr.fit(train)
        assert lr.accuracy(test) > 0.85
