"""Suite-wide fixtures.

The engine's own code reaches a task by reference: every ``repro``
callable a task carries is importable by name (a module-level function,
a ``functools.partial`` of one, or a module-level class). The autouse
fixture below makes the task pickler refuse to ship a ``repro``
function by value, so a closure that captures a matrix, a context or a
lock fails wherever a task is pickled, not only on the process backend.
"""

import pickle

import pytest

from repro.engine import closure


@pytest.fixture(autouse=True)
def _repro_code_ships_by_reference(monkeypatch):
    reduce = closure.TaskPickler.reducer_override

    def strict(self, obj):
        reduced = reduce(self, obj)
        if (isinstance(reduced, tuple)
                and reduced[0] is closure._function_skeleton
                and (obj.__module__ or "").partition(".")[0] == "repro"):
            raise pickle.PicklingError(
                f"{obj.__module__}.{obj.__qualname__} would be pickled "
                f"by value; bind a module-level function instead")
        return reduced

    monkeypatch.setattr(closure.TaskPickler, "reducer_override", strict)
