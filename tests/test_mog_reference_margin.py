"""scripts/mog_reference_margin.py: how much room the MoG benchmark runs
leave against perfbench's recorded outputs."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mog_reference_margin.py"


def _load_script(monkeypatch):
    # the script puts src/ and perfbench/ on sys.path and turns off
    # bytecode writing; both are put back after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("mog_reference_margin",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dg_seed_0_is_within_its_reference():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workloads", "mog_dg", "--seeds", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (line,) = proc.stdout.splitlines()
    workload, seed, job, ratio = line.split()[:4]
    assert (workload, seed, job) == ("mog_dg", "0", "mog_dg")
    assert 0.0 <= float(ratio) < 1.0


def test_a_job_the_checker_fails_reads_inf(monkeypatch, capsys):
    script = _load_script(monkeypatch)
    run_job = script.run.run_job

    def without_status(cli, job, tracer=None):
        result = run_job(cli, job, tracer)
        result.stdout = result.stdout.replace("status ok", "status diverged")
        return result

    monkeypatch.setattr(script.run, "run_job", without_status)
    assert script.main(["--workloads", "mog_dg", "--seeds", "0"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    workload, seed, job, ratio, where = line.split(" ", 4)
    assert (workload, seed, job, ratio) == ("mog_dg", "0", "mog_dg", "inf")
    assert where.startswith("mog_dg: status not ok: 'status diverged")


def test_ratio_is_the_distance_in_units_of_the_bound(monkeypatch):
    script = _load_script(monkeypatch)
    rtol, atol = script.checks.MOG_RTOL, script.checks.MOG_ATOL
    want = {"log": [[0.0, 2.0], [10.0, -4.0]], "samples": [1.0, 0.5]}
    got = {"log": [[0.0, 2.0], [10.0, -4.0 - 3 * (atol + rtol * 4.0)]],
           "samples": [1.0 + 0.5 * (atol + rtol), 0.5]}
    ratio, where = script.margin(got, want)
    assert math.isclose(ratio, 3.0, rel_tol=1e-9)
    assert where == "log row 1 col 1"
