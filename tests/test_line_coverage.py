"""scripts/line_coverage.py: a stdlib line trace of a pytest run or of
the benchmark's command traffic."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dgopt"


def _line_of(module, text):
    """The line number of the one line of src/dgopt/module that strips
    to text."""
    hits = [n for n, line in enumerate((SRC / module).read_text()
                                       .splitlines(), 1)
            if line.strip() == text]
    assert len(hits) == 1, text
    return hits[0]


def _listed(out):
    return {line.split(": ", 1)[0].strip() for line in out.splitlines()
            if line.startswith("  src/dgopt/")}


def test_lists_the_statements_a_test_file_never_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "line_coverage.py"),
         "tests/test_games.py", "-k", "TestSpecs", "-q",
         "-p", "no:cacheprovider"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    assert "forked parallel.split_runs workers are not traced" in out
    listed = _listed(out)
    # parse_game_spec runs under TestSpecs; second_order_fd does not
    assert f"src/dgopt/games.py:{_line_of('games.py', 'params = {}')}" \
        not in listed
    assert (f"src/dgopt/games.py:"
            f"{_line_of('games.py', 'x = p.concat().astype(float)')}"
            in listed)
    # a module no test imports: every statement is listed
    assert "src/dgopt/svgplot.py: " in out
    assert "src/dgopt/svgplot.py: 0 never ran" not in out


def test_jobs_lists_the_statements_command_traffic_never_runs(monkeypatch,
                                                              capsys):
    # the catalog unit cut to its first job, a 500-step gda traj on f1
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads
    unit_jobs = workloads.unit_jobs
    monkeypatch.setattr(workloads, "unit_jobs",
                        lambda *args: unit_jobs(*args)[:1])
    spec = importlib.util.spec_from_file_location(
        "line_coverage", ROOT / "scripts" / "line_coverage.py")
    line_coverage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(line_coverage)

    assert line_coverage.main(["--jobs", "catalog:0"]) == 0
    captured = capsys.readouterr()
    # the job's own report goes to stderr, the listing alone to stdout
    assert "traj_f1_gda.csv" in captured.err
    assert "traj_f1_gda.csv" not in captured.out
    listed = _listed(captured.out)
    # the step map's non-finite-gradient error is never raised; the
    # trajectory loop's step call runs at every step
    error = 'raise NonFiniteValueError("non-finite gradient", point=p)'
    step = "nxt, dg_val, grads = step_map(p)"
    assert f"src/dgopt/optimizers.py:{_line_of('optimizers.py', error)}" \
        in listed
    assert f"src/dgopt/optimizers.py:{_line_of('optimizers.py', step)}" \
        not in listed
