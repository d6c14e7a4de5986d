"""src/dgopt ships only what a command, a script or the benchmark reaches.

Every module-level function and class of src/dgopt, and every method
that is not a dunder, must be referenced from src/dgopt, scripts/ or
perfbench/ somewhere outside its own definition.  A reference is a
name, an attribute, an imported name or a string that is an identifier
(perfbench patches by name, as in patch_traced(rates, "run_adagrad_rate",
...)); comments and docstring prose do not count.  Code that only the
tests use belongs in tests/ (game_helpers.py holds the references).
The files are parsed with ast and never written.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dgopt"
TREES = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


def definitions(tree):
    """(name, first line, last line) of each module-level function and
    class, and of each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item.name, item.lineno, item.end_lineno


def references(tree):
    """(identifier, line) of every name, attribute, imported name and
    identifier string in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def unreached(trees=TREES, package=PACKAGE):
    """'module.py:name' for each definition of package with no
    reference in trees outside its own lines."""
    parsed = {path: ast.parse(path.read_text(), filename=str(path))
              for tree in trees for path in sorted(tree.rglob("*.py"))}
    seen = {}
    for path, tree in parsed.items():
        for name, line in references(tree):
            seen.setdefault(name, []).append((path, line))
    missing = []
    for path in sorted(package.glob("*.py")):
        for name, first, last in definitions(parsed[path]):
            if not any(where != path or not first <= line <= last
                       for where, line in seen.get(name, ())):
                missing.append(f"{path.name}:{name}")
    return missing


def test_every_src_definition_is_reached_outside_tests():
    assert unreached() == []


def test_a_definition_reached_only_by_itself_is_listed(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n\n"
        "class Thing:\n    def method(self):\n        return self.method\n\n"
        "    def __repr__(self):\n        return ''\n\n\n"
        "VALUE = used() + len(Thing.__name__)\n")
    script = tmp_path / "scripts"
    script.mkdir()
    (script / "run.py").write_text("import mod\n\n# recursive\n"
                                   "setattr(mod, 'method', None)\n")
    assert unreached((package, script), package) == ["mod.py:recursive"]
