"""Test-side forcing of the engine's automatic fallbacks.

The columnar shuffle and the pipelined scheduler each keep a second
path the engine picks by itself (unpackable keys; serial, nested or
single-stage jobs). These context managers force that path on any
context so byte-identity contracts can compare the two directly.
"""

import contextlib
from unittest import mock

from repro.engine import rdd as rdd_mod
from repro.engine.scheduler import StageScheduler


@contextlib.contextmanager
def generic_shuffle():
    """Every shuffle takes the per-record tuple path: keys never pack.

    Enter it *before* creating a ``backend="process"`` context so the
    forked workers inherit the patch.
    """
    with mock.patch.object(rdd_mod, "pack_int_keys", lambda records: None):
        yield


def shuffle_path(columnar: bool):
    """The default columnar shuffle, or the forced generic one."""
    return contextlib.nullcontext() if columnar else generic_shuffle()


@contextlib.contextmanager
def barrier_stages():
    """Shuffle stages run one at a time behind barriers, as on a serial
    context (scheduling is driver-side only)."""

    def barrier(self, stages, pool, parent_span):
        self._run_stages_barrier(stages, pool, parent_span)

    with mock.patch.object(StageScheduler, "_run_stages_pipelined",
                           barrier):
        yield
