"""Test-side forcing of the engine's second paths.

The columnar shuffle keeps a second path the engine picks by itself
(unpackable keys), and the scheduler's one stage loop can overlap
stages or run them one at a time. These context managers force the
second path on any context so byte-identity contracts can compare the
two directly.
"""

import contextlib
from unittest import mock

from repro.engine import rdd as rdd_mod
from repro.engine.scheduler import ExecutorPool


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
    """Stages run one at a time behind barriers on any context.

    The stage loop runs tasks inline whenever its caller is an executor
    thread (a nested job); claiming that for every caller makes each
    stage run to completion, task by task, before the next launches —
    exactly what a serial context does. Scheduling is driver-side
    only, so process workers need not inherit the patch.
    """
    with mock.patch.object(ExecutorPool, "in_worker", lambda self: True):
        yield
