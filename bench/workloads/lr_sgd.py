"""lr_sgd — mini-batch SGD logistic regression, serial backend.

Table III of the paper: ``DistributedSamples.from_coo`` ingest (in
set-up), then per pass a full-batch gradient evaluation,
``LogisticRegression.fit`` (step 0.6, tolerance 1e-4, at most 250
steps, ``chunks_per_step=3``) and a distributed accuracy evaluation,
on a KDD-2012-like dataset generated here at ~20× the rows/features of
``repro.data.LR_SPECS``.

Why this workload: ``ml.sgd`` / ``matrix.vector`` kernels (opt1/opt2)
and *hundreds of tiny jobs* — the workload where driver-side per-job
overhead, not bytes, is the cost. The step count and the weights are
pinned per seed by a numpy replay of the same mini-batches
(``oracle.sgd_fit``).
"""

from __future__ import annotations

import numpy as np

from bench import datagen, oracle
from bench.harness import Op, Session

from repro import ClusterContext, DistributedSamples, LogisticRegression

NAME = "lr_sgd"
WHY = ("serial Table-III logistic regression: 250 SGD steps of 8 tiny "
       "tasks each, so per-job driver overhead is the cost, not bytes")

STEP_SIZE = 0.6
TOLERANCE = 1e-4
MAX_ITERATIONS = 250
CHUNKS_PER_STEP = 3
CHUNK_ROWS = 256
PARTITIONS = 8
EXECUTORS = 2
#: the planted separator is learnable: a fit that ends below this test
#: accuracy did not reach "a solution of stated accuracy"
ACCURACY_FLOOR = 0.85


def params(quick: bool) -> dict:
    if quick:
        return {"train_rows": 18_000, "test_rows": 4_500,
                "features": 8_400}
    return {"train_rows": 146_000, "test_rows": 36_000,
            "features": 67_000}


def generate(seed: int, p: dict) -> dict:
    return datagen.lr_dataset(seed, p["train_rows"], p["test_rows"],
                              p["features"])


def _ingest(context, split: dict, num_features: int):
    return DistributedSamples.from_coo(
        context, split["rows"], split["cols"], split["values"],
        split["labels"], num_features, chunk_rows=CHUNK_ROWS,
        num_partitions=PARTITIONS).cache()


def _probe_point(num_features: int) -> np.ndarray:
    """A fixed, non-trivial weight vector to evaluate gradients at."""
    return np.linspace(-0.5, 0.5, num_features)


class LRSession(Session):
    def __init__(self, context, inputs):
        features = inputs["num_features"]
        self.train = _ingest(context, inputs["train"], features)
        self.test = _ingest(context, inputs["test"], features)
        self.train.nnz()
        self.test.nnz()
        self.model = None
        self.step_times_s = []
        self.iterations = 0
        self.test_accuracy = 0.0
        all_chunks = max(self.train.chunks_per_partition)
        point = _probe_point(features)

        def gradient():
            return self.train.sampled_gradient(
                point, step=0, chunks_per_step=all_chunks)

        def fit():
            self.model = LogisticRegression(
                step_size=STEP_SIZE, tolerance=TOLERANCE,
                max_iterations=MAX_ITERATIONS,
                chunks_per_step=CHUNKS_PER_STEP).fit(self.train)
            history = self.model.history
            self.step_times_s.extend(history.iteration_times_s)
            self.iterations = history.iterations
            return history.iterations, self.model.weights.data

        def accuracy():
            self.test_accuracy = self.model.accuracy(self.test)
            return self.test_accuracy, self.model.weights.data

        super().__init__(context, [Op("gradient", "ml", gradient),
                                   Op("fit", "ml", fit),
                                   Op("accuracy", "ml", accuracy)])

    def probe_data(self) -> dict:
        return {"closure": lambda: self.train.rdd}

    def layer_metrics(self) -> dict:
        times = self.step_times_s
        return {"ml.sgd.step_median_s": float(np.median(times)),
                "ml.sgd.step_p90_s": float(np.percentile(times, 90)),
                "ml.sgd.iterations": self.iterations,
                "ml.lr.accuracy": self.test_accuracy}


def start(inputs: dict, p: dict, workdir: str, trace: bool = False,
          backend=None) -> Session:
    context = ClusterContext(num_executors=EXECUTORS,
                             default_parallelism=PARTITIONS, trace=trace)
    return LRSession(context, inputs)


def expected(inputs: dict, p: dict) -> dict:
    features = inputs["num_features"]
    train, test = inputs["train"], inputs["test"]
    gradient = oracle.logistic_gradient(train, features,
                                        _probe_point(features))

    def accuracy_matches(got) -> bool:
        reported, weights = got
        reference = oracle.accuracy(test, weights)
        # sigmoid(z) >= 0.5 and z >= 0 may disagree on a row with
        # z within one ulp of zero; allow two such rows
        return (abs(reported - reference) <= 2.0 / test["labels"].size
                and reported >= ACCURACY_FLOOR)

    steps, weights = oracle.sgd_fit(
        train, features, PARTITIONS, CHUNK_ROWS, CHUNKS_PER_STEP,
        STEP_SIZE, TOLERANCE, MAX_ITERATIONS)
    # near-cancelling entries carry absolute, not relative, rounding
    scale = float(np.abs(gradient).max())
    return {"gradient": (oracle.Close(gradient, atol=oracle.RTOL * scale),
                         int(train["labels"].size)),
            "fit": (steps, oracle.Close(
                weights, atol=oracle.RTOL * float(np.abs(weights).max()))),
            "accuracy": accuracy_matches}
