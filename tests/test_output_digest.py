"""scripts/output_digest.py: the sha256 of every file a benchmark unit
writes, figures included."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_digest.py"


def listing(seed):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workloads", "catalog",
         "--seeds", str(seed)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_two_runs_of_a_catalog_seed_list_the_same_digests():
    first = listing(4)
    assert first == listing(4)
    fields = [line.split() for line in first]
    assert all(len(f) == 5 and f[:2] == ["catalog", "4"] and len(f[4]) == 64
               for f in fields)
    names = {f[3] for f in fields}
    # the traj, landscape and rate figures are listed with the data files
    assert {"traj_f1_gda.svg", "land_dg_exact.svg", "rate.svg",
            "rate.csv", "traj_f1_gda.csv"} <= names
    assert len(fields) == len(names)
