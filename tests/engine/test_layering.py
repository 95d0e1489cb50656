"""The engine layer imports nothing from the layers built on it.

``repro.engine`` is the mini-Spark substrate; arrays, matrices, bitmasks
and everything above reach it, never the other way round. Hooks the
engine needs from a value (its column codec, resident size, repack) are
found on the value's own type at run time, so no import is needed.
"""

import ast
from pathlib import Path

import repro.engine

UPPER_LAYERS = ("repro.core", "repro.matrix", "repro.bitmask", "repro.ml",
                "repro.queries", "repro.io", "repro.baselines")

ENGINE_DIR = Path(repro.engine.__file__).parent


def imported_modules(source: str, package: str = "repro.engine"):
    """Every dotted name an import statement in ``source`` can bind,
    relative imports resolved against ``package``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def upward_imports(source: str):
    return sorted({name for name in imported_modules(source)
                   for layer in UPPER_LAYERS
                   if name == layer or name.startswith(layer + ".")})


def test_scanner_sees_every_import_form():
    source = "\n".join([
        "from repro.core.chunk import Chunk",
        "import repro.matrix.offsets",
        "from repro import ml",
        "from ..io import store",
        "from . import spill",
        "def f():\n    from repro.bitmask import Bitmask",
    ])
    assert upward_imports(source) == [
        "repro.bitmask", "repro.bitmask.Bitmask", "repro.core.chunk",
        "repro.core.chunk.Chunk", "repro.io", "repro.io.store",
        "repro.matrix.offsets", "repro.ml"]


def test_engine_imports_no_upper_layer():
    modules = sorted(ENGINE_DIR.rglob("*.py"))
    assert modules
    offenders = {
        str(path.relative_to(ENGINE_DIR)): found
        for path in modules
        if (found := upward_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
