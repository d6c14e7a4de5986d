#!/usr/bin/env python3
"""List the statements of src/dgopt that a pytest run, or the benchmark's
command traffic, never executes.

Stdlib only (no coverage package):

    python3 scripts/line_coverage.py [PYTEST ARGS...]
    python3 scripts/line_coverage.py --jobs WORKLOAD:SEED[,WORKLOAD:SEED...]

The first form runs pytest in this process with the given arguments
(default: the Tier-1 suite, -q --continue-on-collection-errors).  The
second runs the CLI calls of each benchmark unit
(perfbench/workloads.unit_jobs, e.g. catalog:1) through dgopt.cli.main,
writing every output under a temporary directory; the jobs' own output
goes to stderr.  Either runs under sys.settrace and threading.settrace,
recording the lines executed in src/dgopt.  It then prints, per module,
each statement (taken from ast) of which no line ran, as path:line and
its first source line.  Work in the worker processes parallel.split_runs
forks is not traced, so a statement only they run is listed too.  Exits
with pytest's exit code, or with 1 if any job exits non-zero, else 0.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import tempfile
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


def traced(run):
    """run() traced: (its result, {path: lines run})."""
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

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, {Path(name).resolve(): lines
                    for name, lines in ran.items() if inside[name]}


def run_jobs(units: str) -> int:
    """Every job of each WORKLOAD:SEED unit through cli.main, outputs
    under a temporary directory: 0 if every job exits 0, else 1."""
    sys.dont_write_bytecode = True   # no __pycache__ under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from dgopt import cli

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for unit in units.split(","):
            workload, _, seed = unit.partition(":")
            out_dir = Path(tmp) / workload / seed
            out_dir.mkdir(parents=True)
            for job in workloads.unit_jobs(workload, int(seed), out_dir):
                with contextlib.redirect_stdout(sys.stderr):
                    failed |= cli.main(list(job.argv)) != 0
    return int(failed)


def never_ran(ran) -> list:
    """The report's lines: per module a count, then each statement of
    which no line is in ran[path]."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, done = source.splitlines(), ran.get(path, set())
        missed = [first for first, span in statements(ast.parse(source))
                  if done.isdisjoint(span)]
        name = path.relative_to(ROOT)
        out.append(f"{name}: {len(missed)} never ran")
        out += [f"  {name}:{first}: {lines[first - 1].strip()}"
                for first in sorted(missed)]
    return out


def main(argv) -> int:
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    if argv[:1] == ["--jobs"] and len(argv) == 2:
        code, ran = traced(lambda: run_jobs(argv[1]))
    else:
        # as the Tier-1 command: from the root, src on the path of this
        # process and of the subprocesses tests start
        import pytest
        os.chdir(ROOT)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        code, ran = traced(lambda: int(pytest.main(argv or TIER1)))
    print("\nstatements of src/dgopt that never ran (forked "
          "parallel.split_runs workers are not traced):")
    print("\n".join(never_ran(ran)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
