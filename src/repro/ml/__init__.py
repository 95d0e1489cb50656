"""Machine learning on Spangle (Section VI of the paper).

The package holds the paper's two array-specific algorithms; general
learners belong in a library layered on top of the engine.

- :class:`~repro.ml.graph.BitmaskGraph` — an unweighted adjacency matrix
  stored as bitmask blocks only (one bit per edge, Section VI-B).
- :func:`~repro.ml.pagerank.pagerank` — the decomposed power method
  p ← αA'(w ∘ p) + (1−α)/n.
- :mod:`~repro.ml.sgd` — parallel mini-batch SGD with the Eq. 2 chunk-ID
  scheme for shuffle-free sampling.
- :class:`~repro.ml.logistic.LogisticRegression` — Eq.-2 SGD for
  logistic regression with the *opt1*/*opt2* optimizations of
  Section VI-C.
"""

from repro.ml.graph import BitmaskGraph
from repro.ml.logistic import LogisticRegression
from repro.ml.pagerank import PageRankResult, pagerank
from repro.ml.sgd import DistributedSamples, SampleChunk

__all__ = [
    "BitmaskGraph",
    "DistributedSamples",
    "LogisticRegression",
    "PageRankResult",
    "SampleChunk",
    "pagerank",
]
