"""Task serialization for the process backend: a closure pickler.

Plain pickle refuses lambdas, local functions, and anything whose
closure they ride in — which is most of an RDD program. This module
ships them anyway, the way cloudpickle does but in miniature:

- functions importable by their qualified name pickle **by reference**
  (the forked worker shares the driver's module table, so the name
  resolves to the same code);
- everything else — lambdas, nested functions, comprehension helpers —
  pickles **by value**: marshaled code object, defaults, closure cell
  contents, and the referenced slice of the function's globals
  (modules by import name, nested non-importable functions recursively
  by value).

The rule for ``repro``'s own code: every callable a task carries is
importable by name (a module-level function, bound to its parameters
with ``functools.partial``, or a module-level class holding them) and
every placement is a partitioner value, so a task never holds a matrix,
a context or its locks, and the by-value path serves only *user* UDFs,
which stay ergonomic lambdas. ``tests/conftest.py`` makes the pickler
raise on any ``repro`` function it would ship by value.

``task_dumps``/``task_loads`` wrap a whole task payload; the worker
side is plain ``pickle.loads`` because a by-value function reduces to
an importable :func:`_function_skeleton` call whose defaults, cells
and globals :func:`_fill_function` sets afterwards.
"""

from __future__ import annotations

import builtins
import importlib
import io
import marshal
import pickle
import sys
import types


class _EmptyCell:
    """Marks a closure cell that was still unfilled when its function
    pickled; a class, so it pickles by reference and keeps its
    identity in the worker."""


def _is_importable(func) -> bool:
    """Whether ``func`` resolves to itself via its module + qualname."""
    module_name = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if not module_name or not qualname or "<" in qualname:
        return False
    module = sys.modules.get(module_name)
    if module is None:
        return False
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is func


def _referenced_globals(code, func_globals) -> dict:
    """The slice of ``func_globals`` the code object can actually name.

    Walks nested code objects (inner lambdas, comprehensions) so their
    references ship too.
    """
    names = set()

    def walk(code_obj):
        names.update(code_obj.co_names)
        for const in code_obj.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    walk(code)
    return {name: func_globals[name]
            for name in names if name in func_globals}


def _function_skeleton(code_bytes, module_name, qualname):
    """A by-value function with empty cells and bare globals.

    Pickle memoizes the skeleton before :func:`_fill_function` runs, so
    a function that reaches itself — a recursive lambda through its
    globals, a nested ``def`` through its own closure cell — pickles
    as a back-reference instead of recursing forever.
    """
    code = marshal.loads(code_bytes)
    func_globals = {"__builtins__": builtins.__dict__,
                    "__name__": module_name}
    closure = tuple(types.CellType() for _ in code.co_freevars) or None
    func = types.FunctionType(code, func_globals, code.co_name, None,
                              closure)
    func.__module__ = module_name
    func.__qualname__ = qualname
    return func


def _fill_function(func, state):
    """Finish a :func:`_function_skeleton` in the worker process."""
    defaults, kwdefaults, cell_values, globals_slice = state
    func.__globals__.update(globals_slice)
    func.__defaults__ = defaults
    func.__kwdefaults__ = kwdefaults
    for cell, value in zip(func.__closure__ or (), cell_values):
        if value is not _EmptyCell:
            cell.cell_contents = value
    return func


class TaskPickler(pickle.Pickler):
    """Pickler that serializes non-importable functions by value.

    ``overrides`` maps ``id(obj)`` to the reduce tuple pickled in
    ``obj``'s place — how the process backend ships a lineage sliced to
    one task without touching the shared RDDs.
    """

    def __init__(self, file, overrides=None):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._overrides = overrides or {}

    def reducer_override(self, obj):
        override = self._overrides.get(id(obj))
        if override is not None:
            return override
        if isinstance(obj, types.FunctionType):
            if _is_importable(obj):
                return NotImplemented   # by-reference, the default
            cell_values = []
            for cell in obj.__closure__ or ():
                try:
                    cell_values.append(cell.cell_contents)
                except ValueError:   # unfilled (self-recursive)
                    cell_values.append(_EmptyCell)
            state = (obj.__defaults__, obj.__kwdefaults__,
                     tuple(cell_values),
                     _referenced_globals(obj.__code__, obj.__globals__))
            return (_function_skeleton,
                    (marshal.dumps(obj.__code__), obj.__module__,
                     obj.__qualname__),
                    state, None, None, _fill_function)
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        return NotImplemented


def task_dumps(obj, overrides=None) -> bytes:
    """Serialize a task payload, closures included; ``overrides`` as
    in :class:`TaskPickler`."""
    buffer = io.BytesIO()
    TaskPickler(buffer, overrides).dump(obj)
    return buffer.getvalue()


def task_loads(data: bytes):
    return pickle.loads(data)
