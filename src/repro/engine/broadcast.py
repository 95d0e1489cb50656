"""Broadcast variables.

Spark ships read-only values to every executor once per job through its
broadcast mechanism; Spangle's ML algorithms lean on it for the rank /
weight vectors. The engine runs in one process, so a broadcast is
physically a reference — but its *cost* is real on a cluster, so
:meth:`ClusterContext.broadcast` meters ``value_size × num_executors``
bytes into the metrics, which the cost model prices as network time.
"""

from __future__ import annotations

from repro.errors import EngineError


class Broadcast:
    """A read-only value shipped once to every executor."""

    __slots__ = ("_value", "_destroyed", "nbytes", "label")

    def __init__(self, value, nbytes: int, label: str = None):
        self._value = value
        self._destroyed = False
        self.nbytes = nbytes
        # shown by trace spans; defaults to the payload's type name
        self.label = label or f"broadcast[{type(value).__name__}]"

    @property
    def value(self):
        if self._destroyed:
            raise EngineError("broadcast variable was destroyed")
        return self._value

    def destroy(self) -> None:
        """Release the broadcast (further access is an error)."""
        self._destroyed = True
        self._value = None

    def __repr__(self) -> str:
        state = "destroyed" if self._destroyed else f"{self.nbytes}B"
        return f"Broadcast({state})"
