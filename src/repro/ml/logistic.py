"""Customized logistic regression for Spangle (Section VI-C).

The update rule, with M_t a mini-batch of rows and h the sigmoid:

    x_{t+1} = x_t − θ Mᵀ_t (h(M_t · x_t) − y_t)

The paper's two optimizations; ``opt1=False`` / ``opt2=False`` run the
unoptimized form for the Fig. 12b ablation:

- **opt1** — never transpose M: rewrite the gradient as
  ``((h(Mx) − y)ᵀ M)ᵀ`` so only a small vector-matrix product runs,
  scattered from each CSR sample chunk straight into the partition's
  gradient (:meth:`SampleChunk.add_t_dot`); without it, each step
  materializes the transposed structure of every sampled chunk
  (:meth:`SampleChunk.t_dot_materialized`).
- **opt2** — transposing the resulting 1×f row vector back to f×1 is a
  metadata swap (:meth:`SpangleVector.transpose`); without it, a
  physical round-trip through a distributed array pays real shuffles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError, SpangleError
from repro.matrix.vector import SpangleVector
from repro.ml.sgd import DistributedSamples, _sigmoid


@dataclass
class TrainingHistory:
    """Per-iteration residuals and times for the Fig. 12 benches."""

    residuals: list = field(default_factory=list)
    iteration_times_s: list = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        return sum(self.iteration_times_s)

    @property
    def iterations(self) -> int:
        return len(self.residuals)


class LogisticRegression:
    """Mini-batch SGD logistic regression over DistributedSamples.

    Parameters follow the paper's experiment setup: ``step_size=0.6``,
    ``tolerance=1e-4``. ``chunks_per_step`` is the α knob configuring
    how many sample chunks each partition contributes per step.
    """

    def __init__(self, step_size: float = 0.6, tolerance: float = 1e-4,
                 max_iterations: int = 200, chunks_per_step: int = 1,
                 opt1: bool = True, opt2: bool = True, seed: int = 0,
                 raise_on_divergence: bool = False):
        if step_size <= 0:
            raise SpangleError("step_size must be positive")
        if chunks_per_step < 1:
            raise SpangleError(
                f"chunks_per_step must be at least 1, got {chunks_per_step}")
        self.step_size = step_size
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.chunks_per_step = chunks_per_step
        self.opt1 = opt1
        self.opt2 = opt2
        self.seed = seed
        self.raise_on_divergence = raise_on_divergence
        self.weights: SpangleVector = None
        self.history = TrainingHistory()

    def fit(self, samples: DistributedSamples) -> "LogisticRegression":
        x = SpangleVector.zeros(samples.num_features, "col")
        self.history = TrainingHistory()
        residual = np.inf
        for step in range(self.max_iterations):
            start = time.perf_counter()
            grad_row, count = samples.sampled_gradient(
                x.data, step, chunks_per_step=self.chunks_per_step,
                opt1=self.opt1, seed=self.seed)
            if count == 0:
                break
            # the gradient arrives as a 1×f row vector (opt1's shape);
            # the update needs f×1
            grad_vector = SpangleVector(grad_row, "row")
            if self.opt2:
                grad_col = grad_vector.transpose()
            else:
                grad_col = grad_vector.transpose_physical(samples.context)
            new_x = SpangleVector(
                x.data - self.step_size * (grad_col.data / count), "col")
            residual = float(np.abs(new_x.data - x.data).max())
            x = new_x
            self.history.residuals.append(residual)
            self.history.iteration_times_s.append(
                time.perf_counter() - start)
            if residual < self.tolerance:
                break
        else:
            if self.raise_on_divergence and residual >= self.tolerance:
                raise ConvergenceError("logistic regression",
                                       self.max_iterations, residual)
        self.weights = x
        return self

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def _check_fitted(self) -> None:
        if self.weights is None:
            raise ConvergenceError("logistic regression", 0, np.inf)

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw scores for a dense (n, f) feature matrix."""
        self._check_fitted()
        return np.asarray(features) @ self.weights.data

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features) >= 0.5).astype(np.int64)

    def accuracy(self, samples: DistributedSamples) -> float:
        """Distributed accuracy over a (test) DistributedSamples."""
        self._check_fitted()
        return samples.evaluate_accuracy(self.weights.data)
