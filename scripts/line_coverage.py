#!/usr/bin/env python3
"""List the statements of src/dgopt that a pytest run never executes.

Stdlib only (no coverage package):

    python3 scripts/line_coverage.py [PYTEST ARGS...]

runs pytest in this process with the given arguments (default: the
Tier-1 suite, -q --continue-on-collection-errors) under sys.settrace
and threading.settrace, recording the lines executed in src/dgopt.
It then prints, per module, each statement (taken from ast) of which
no line ran, as path:line and its first source line.  Work in the
worker processes parallel.split_runs forks is not traced, so a
statement only they run is listed too.  Exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dgopt"
TIER1 = ["-q", "--continue-on-collection-errors"]


def statements(tree):
    """(first line, lines that show it ran) for each statement that
    compiles to code: a simple statement's own lines, or a compound
    statement's header (decorators included), not its body."""
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt)
                or isinstance(node, (ast.Global, ast.Nonlocal))
                or (isinstance(node, ast.Expr)   # a docstring: no code
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str))):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = (max(node.lineno, body[0].lineno - 1) if body
                else node.end_lineno)
        yield first, range(first, last + 1)


def trace_pytest(args):
    """pytest.main(args) traced: (its exit code, {path: lines run})."""
    import pytest
    ran, inside = {}, {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == PACKAGE
            ran.setdefault(name, set())
        return local if inside[name] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {Path(name).resolve(): lines
                       for name, lines in ran.items() if inside[name]}


def main(argv) -> int:
    # as the Tier-1 command: from the root, src on the path of this
    # process and of the subprocesses tests start
    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    code, ran = trace_pytest(argv or TIER1)
    print("\nstatements of src/dgopt that never ran (forked "
          "parallel.split_runs workers are not traced):")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, done = source.splitlines(), ran.get(path, set())
        missed = [first for first, span in statements(ast.parse(source))
                  if done.isdisjoint(span)]
        name = path.relative_to(ROOT)
        print(f"{name}: {len(missed)} never ran")
        for first in sorted(missed):
            print(f"  {name}:{first}: {lines[first - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
