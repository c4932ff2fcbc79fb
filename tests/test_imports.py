"""Two checks of a linter's kind on the stdlib ``ast``: no unused imports, no dead private helpers; and what
importing the package loads.

No module of the package imports a name it never uses (F401). ``__init__.py`` re-exports its imports and is
skipped. An import statement whose lines carry ``# noqa: F401`` is kept on purpose (``ginv`` keeps ``svd`` for a
tracer that rebinds it there).

Every module-level private function, class or constant of the package is referenced somewhere in the package
outside its own definition, so a helper a refactor stopped calling cannot survive it.

Importing the CLI loads no process-pool module: the suite imports them only when it starts a pool.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chaninv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names that ``source`` imports, outside statements marked ``# noqa: F401``, and never references."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def _defined_names(statement) -> list:
    """The names a module-level statement defines: a def or class name, or the plain names it assigns."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(node) -> set:
    """Every name ``node`` reads, as a bare name or as the attribute of a module (``chn._get_rng``)."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_private_names(sources: dict) -> list:
    """``module.name`` of each module-level private name of ``sources`` (module -> source) referenced nowhere
    in them but its own defining statement."""
    statements = [(module, s, _referenced_names(s))
                  for module, source in sources.items() for s in ast.parse(source).body]
    dead = []
    for module, statement, _ in statements:
        for name in _defined_names(statement):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in refs for _, other, refs in statements if other is not statement):
                dead.append(f"{module}.{name}")
    return sorted(dead)


def test_finder_sees_unused_and_kept_imports():
    source = (
        "import math\n"
        "import os.path\n"
        "from .linalg import (  # noqa: F401\n"
        "    svd,\n"
        ")\n"
        "from .linalg import _by_shape, dagger as dg, fro_dist\n"
        "x = dg(math.pi) + fro_dist\n"
    )
    assert unused_imports(source) == ["_by_shape", "os"]


def test_finder_sees_dead_private_names():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "__all__ = ['run']\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "class _Kept:\n"
            "    pass\n"
            "def run():\n"
            "    return _helper()\n"
        ),
        "b": "from . import a\nx = a._Kept\n",
    }
    assert unreferenced_private_names(sources) == ["a._UNUSED", "a._recursive"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_dead_private_names():
    assert unreferenced_private_names({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


def test_cli_import_loads_no_process_pool_modules():
    # in a fresh interpreter, as the console script starts
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, chaninv.cli; print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
