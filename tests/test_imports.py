"""No module of the package imports a name it never uses (the check of a linter's F401, on the stdlib ``ast``).

``__init__.py`` re-exports its imports and is skipped. An import statement whose lines carry ``# noqa: F401``
is kept on purpose (``ginv`` keeps ``svd`` for a tracer that rebinds it there).
"""

import ast
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
