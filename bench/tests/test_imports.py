"""Import discipline: the benchmark touches only surface the ROADMAP keeps.

The simplification PRs that follow delete the escape-hatch toggles, the
``repro.plan`` / ``repro.scheduler`` / ``repro.optimizer`` alias
modules, ``repro.baselines`` and the ``ml`` modules beyond PageRank /
SGD / LR. The benchmark must survive those deletions untouched, so it
may not name any of them — nor reach into anything underscore-private.
"""

import ast
import pathlib
import re

BENCH = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted(path for path in BENCH.rglob("*.py")
                 if "tests" not in path.relative_to(BENCH).parts)

FORBIDDEN = [
    r"disable_fusion", r"disable_columnar", r"disable_pipelining",
    r"optimizer\.disable", r"set_sparse_kernel",
    r"repro\.(plan|scheduler|optimizer)\b",
    r"from\s+repro\s+import\s+[^\n]*\b(plan|scheduler|optimizer)\b",
    r"repro\.baselines",
    r"ml\.(kmeans|pca|svm|solvers|components)\b",
]


def test_sources_found():
    assert any(path.name == "run.py" for path in SOURCES)


def test_no_forbidden_surface():
    offences = []
    for path in SOURCES:
        text = path.read_text()
        for pattern in FORBIDDEN:
            for match in re.finditer(pattern, text):
                line = text.count("\n", 0, match.start()) + 1
                offences.append(f"{path.name}:{line}: {match.group(0)}")
    assert not offences, offences


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


def test_nothing_underscore_private():
    """No ``obj._x`` on anything but ``self``/``cls``, and no private
    name imported from another module."""
    offences = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _is_private(node.attr):
                owner = node.value
                if not (isinstance(owner, ast.Name)
                        and owner.id in ("self", "cls")):
                    offences.append(
                        f"{path.name}:{node.lineno}: .{node.attr}")
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if _is_private(alias.name):
                        offences.append(
                            f"{path.name}:{node.lineno}: import "
                            f"{alias.name}")
    assert not offences, offences
