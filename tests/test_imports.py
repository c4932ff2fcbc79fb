"""Two checks of a linter's kind on the stdlib ``ast``: no unused imports, no dead private helpers; and what
importing the package loads.

No module of the package imports a name it never uses (F401). ``__init__.py`` re-exports its imports and is
skipped. An import statement whose lines carry ``# noqa: F401`` is kept on purpose (``ginv`` keeps ``svd`` for a
tracer that rebinds it there).

Every module-level private function, class or constant of the package is referenced somewhere in the package
outside its own definition, so a helper a refactor stopped calling cannot survive it.

``GinvReport(...)`` is called once in ``ginv``, in ``_report``, the gate every route shares, so that no route
builds a certificate past it. ``_report`` and the dense ``_residuals`` are called only where ``_certify`` judges a
stack (and ``_residuals`` in ``verify_axioms``), so that no route grows a gate or a residual stage of its own. The
deflation ``_core`` is called only by ``_by_svd``'s ``deflate``, ``drazin_index`` and ``verify_axioms``, so that every
Drazin index, and the exponent at which ``verify_axioms`` judges D1 or Dd1, comes from it.

No call of ``_run_checks`` in ``theorems`` sits inside a loop, so that each suite item checks all its instances
in one call, one ``_certify_all`` call per kind and round, and the suite never goes back to checking them in chunks.

No module of the package reads the environment (``os.environ``, ``os.environb``, ``os.getenv``), so that flags
alone determine a ``chaninv`` run.

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


def _called(call) -> str | None:
    """The name a call calls: a bare name or the last attribute (``mod.f`` -> ``f``)."""
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def call_sites(source: str, callee: str) -> list:
    """The innermost enclosing function of each call of ``callee`` (a bare name or an attribute) in ``source``,
    in source order; ``<module>`` for a call outside any function."""
    sites = []

    def visit(node, function):
        if isinstance(node, ast.Call) and _called(node) == callee:
            sites.append(function)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return sites


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def calls_in_loops(source: str, callee: str) -> list:
    """The line of each call of ``callee`` (a bare name or an attribute) in ``source`` that sits inside a ``for``
    or ``while`` statement or a comprehension, in source order."""
    lines = []

    def visit(node, looped):
        if looped and isinstance(node, ast.Call) and _called(node) == callee:
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, looped or isinstance(node, LOOPS))

    visit(ast.parse(source), False)
    return lines


ENVIRONMENT_READERS = {"environ", "environb", "getenv"}


def environment_reads(source: str) -> list:
    """``line: os.name`` of each read of an environment reader of ``os`` in ``source``, as an attribute of ``os``
    or imported from it."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT_READERS]
    return [f"{line}: os.{name}" for line, name in sorted(reads)]


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


def test_finder_sees_every_call_site():
    source = (
        "R = Report(0)\n"
        "def build(x):\n"
        "    def inner():\n"
        "        return mod.Report(x)\n"
        "    return Report(inner())\n"
        "class Route:\n"
        "    def run(self):\n"
        "        return isinstance(self, Report) or [Report(i) for i in range(2)]\n"
        "check = lambda r: Report(r)\n"
    )
    assert call_sites(source, "Report") == ["<module>", "inner", "build", "run", "<lambda>"]


def test_finder_sees_calls_in_loops():
    source = (
        "def run(items, tol):\n"
        "    out = run_checks([(check, i) for i in items], tol)\n"
        "    while chunk := take(items):\n"
        "        out += run_checks(chunk, tol)\n"
        "    for x in items:\n"
        "        if x:\n"
        "            mod.run_checks([x], tol)\n"
        "    return out + [run_checks(c, tol) for c in items]\n"
    )
    assert calls_in_loops(source, "run_checks") == [4, 7, 8]


def test_finder_sees_environment_reads():
    source = (
        "import os\n"
        "from os import getenv as ge, path\n"
        "def home():\n"
        "    return os.environ.get('HOME') or os.getenv('USER')\n"
        "raw = os.environb[b'PATH']\n"
        "cpus = os.sched_getaffinity(0)\n"
        "environ = {}\n"
    )
    assert environment_reads(source) == ["2: os.getenv", "4: os.environ", "4: os.getenv", "5: os.environb"]


def test_one_function_builds_every_certificate():
    assert call_sites((PACKAGE / "ginv.py").read_text(), "GinvReport") == ["_report"]


@pytest.mark.parametrize("callee, sites", [
    ("_residuals", {"verify_axioms", "_judge"}),
    ("_report", {"_judge"}),
    ("_lu_inverse", {"_lu_route", "_judge"}),  # the route's inverses, then every index-0 group member's G^-1
    ("_core", {"deflate", "drazin_index", "verify_axioms"}),  # every Drazin index, and verify_axioms' exponents
])
def test_one_function_judges_every_stack(callee, sites):
    assert set(call_sites((PACKAGE / "ginv.py").read_text(), callee)) == sites


@pytest.mark.parametrize("entry, site", [("svd", "_svd"), ("inv", "_lu_inverse"), ("solve", "_core_inverse")])
def test_one_function_calls_each_lapack_entry(entry, site):
    # every route factors through these three, so none grows a factorization of its own
    assert set(call_sites((PACKAGE / "ginv.py").read_text(), entry)) == {site}


def test_each_suite_item_checks_its_instances_in_one_call():
    assert calls_in_loops((PACKAGE / "theorems.py").read_text(), "_run_checks") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []


def test_no_dead_private_names():
    assert unreferenced_private_names({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


def test_cli_import_loads_no_process_pool_modules():
    # in a fresh interpreter, as the console script starts
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys, chaninv.cli; print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
