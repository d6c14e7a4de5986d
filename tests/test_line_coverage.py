"""scripts/line_coverage.py: a stdlib line trace of a pytest run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAMES = ROOT / "src" / "dgopt" / "games.py"


def _line_of(text):
    """The line number of the one line of games.py that strips to text."""
    hits = [n for n, line in enumerate(GAMES.read_text().splitlines(), 1)
            if line.strip() == text]
    assert len(hits) == 1, text
    return hits[0]


def test_lists_the_statements_a_test_file_never_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "line_coverage.py"),
         "tests/test_games.py", "-k", "TestSpecs", "-q",
         "-p", "no:cacheprovider"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    assert "forked parallel.split_runs workers are not traced" in out
    listed = {line.split(": ", 1)[0].strip() for line in out.splitlines()
              if line.startswith("  src/dgopt/")}
    # parse_game_spec runs under TestSpecs; second_order_fd does not
    assert f"src/dgopt/games.py:{_line_of('params = {}')}" not in listed
    assert (f"src/dgopt/games.py:"
            f"{_line_of('x = p.concat().astype(float)')}" in listed)
    # a module no test imports: every statement is listed
    assert "src/dgopt/svgplot.py: " in out
    assert "src/dgopt/svgplot.py: 0 never ran" not in out
