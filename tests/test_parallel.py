"""dgopt.parallel is the one module that starts threads and processes.

Every other module holds numerics only: it imports none of the modules
that fork, signal, pickle or load C libraries, and uses threading only
for per-thread state (threading.local).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dgopt"
PROCESS_MODULES = ("os", "ctypes", "signal", "pickle", "multiprocessing",
                   "concurrent.futures")


def _imports(tree):
    """The dotted name each absolute import in tree binds, nested imports
    included: 'a.b' for import a.b, 'a.b.c' for from a.b import c."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _process_imports(tree):
    return sorted({name for name in _imports(tree) for module in PROCESS_MODULES
                   if name == module or name.startswith(module + ".")})


def _parsed(name):
    return ast.parse((PACKAGE / name).read_text())


@pytest.mark.parametrize("name", sorted(
    path.name for path in PACKAGE.glob("*.py") if path.name != "parallel.py"))
def test_only_parallel_starts_threads_and_processes(name):
    tree = _parsed(name)
    assert _process_imports(tree) == []
    threading_uses = {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "threading"}
    assert threading_uses <= {"local"}
    assert {name for name in _imports(tree)
            if name.startswith("threading.")} <= {"threading.local"}
    assert "threading" not in {alias.name for node in ast.walk(tree)
                               if isinstance(node, ast.Import)
                               for alias in node.names if alias.asname}


def test_the_check_sees_parallels_own_imports():
    # the function-local imports of split_runs and concurrent_halves too
    assert _process_imports(_parsed("parallel.py")) == [
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor", "ctypes", "multiprocessing",
        "os"]
