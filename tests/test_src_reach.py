"""src/dgopt ships only what a command, a script or the benchmark reaches.

Every module-level function and class of src/dgopt, and every method
that is not a dunder, must be referenced from src/dgopt, scripts/ or
perfbench/ somewhere outside its own definition.  A reference is a
name, an attribute, an imported name or a string that is an identifier
(perfbench patches by name, as in patch_traced(rates, "run_adagrad_rate",
...)); comments and docstring prose do not count.  Code that only the
tests use belongs in tests/ (game_helpers.py holds the references).

Every defaulted parameter of such a function or method (of __init__
too) that some call in those trees reaches must also be set by one of
those calls, or named by an identifier string there: a value no caller
changes is a constant, not an option.  The files are parsed with ast
and never written.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dgopt"
TREES = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """(name, first line, last line) of each module-level function and
    class, and of each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, FUNCTIONS)
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


def parse(trees):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for tree in trees for path in sorted(tree.rglob("*.py"))}


def unreached(trees=TREES, package=PACKAGE):
    """'module.py:name' for each definition of package with no
    reference in trees outside its own lines."""
    parsed = parse(trees)
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


def _defaults(fn, name, skip):
    """(name, parameter, its index among a call's positional arguments
    or None) for each defaulted parameter of fn, called as name with its
    first skip parameters bound (self or cls)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield name, arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield name, arg.arg, None


def defaulted_parameters(tree):
    """_defaults of each module-level function and of each method of a
    module-level class.  A method is called by its own name through an
    instance, or for __init__ by the class name, so self (or cls) is
    bound; a staticmethod binds nothing."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield from _defaults(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield from _defaults(
                        item, node.name if item.name == "__init__"
                        else item.name, 0 if static else 1)


def _sets(call, parameter, index):
    """Whether call sets the parameter: by keyword, through ** unpacking,
    at its positional index, or through * unpacking at or before it."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    return index is not None and any(
        i == index or (i < index and isinstance(arg, ast.Starred))
        for i, arg in enumerate(call.args))


def unset_parameters(trees=TREES, package=PACKAGE):
    """'module.py:function(parameter)' for each defaulted parameter of
    package whose function some call in trees reaches by name, where no
    such call sets it and no identifier string in trees names it (as
    games._CATALOG names make_ncnc's include_separable).  A function
    with no call is left to unreached.  Calls are matched by name
    alone, as references are, so a name shared by two functions pools
    their calls."""
    parsed = parse(trees)
    calls, named = {}, set()
    for path, tree in parsed.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute)
                        else None)
                calls.setdefault(name, []).append(node)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                named.add(node.value)
    missing = []
    for path in sorted(package.glob("*.py")):
        for name, parameter, index in defaulted_parameters(parsed[path]):
            reaching = calls.get(name, ())
            if (reaching and parameter not in named
                    and not any(_sets(call, parameter, index)
                                for call in reaching)):
                missing.append(f"{path.name}:{name}({parameter})")
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


def test_a_defaulted_parameter_no_call_sets_is_listed(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def unset(a, left=1):\n    return a\n\n\n"
        "def keyword(a, by_keyword=1):\n    return a\n\n\n"
        "def position(a, by_position=1):\n    return a\n\n\n"
        "def star(a, by_star=1):\n    return a\n\n\n"
        "def stars(a, *, by_stars=1):\n    return a\n\n\n"
        "def named(a, by_name=1):\n    return a\n\n\n"
        "def uncalled(a, never=1):\n    return a\n\n\n"
        "class Thing:\n    def __init__(self, size=1):\n"
        "        self.size = size\n\n"
        "    def method(self, width=1):\n        return width\n\n"
        "    @staticmethod\n    def make(lo, dim=2):\n"
        "        return lo, dim\n")
    script = tmp_path / "scripts"
    script.mkdir()
    # each called function is called once without its option too; a
    # comment that names an option does not set it
    (script / "run.py").write_text(
        "import mod\n\n"
        "mod.unset(1)\n"
        "mod.keyword(1)\nmod.keyword(1, by_keyword=2)\n"
        "mod.position(1)\nmod.position(1, 2)\n"
        "mod.star(1)\nmod.star(*[1, 2])\n"
        "mod.stars(1)\nmod.stars(1, **dict(by_stars=2))\n"
        "mod.named(1)\nOPTIONS = {'by_name': 2}\n"
        "thing = mod.Thing()\nmod.Thing(3)\n"
        "thing.method()\nthing.method(2)\n"
        "mod.Thing.make(0)\nmod.Thing.make(0, 3)\n"
        "# left\n")
    assert unset_parameters((package, script), package) == ["mod.py:unset(left)"]


def test_every_defaulted_parameter_is_set_by_a_call():
    assert unset_parameters() == []
