"""The catalog benchmark unit of seed 0 writes the outputs perfbench
recorded for it, byte for byte.

Each job runs as the benchmark runs it, through perfbench/run.run_job,
and perfbench/checks.Checker compares its outputs with the digests in
perfbench/reference.json.  The test reads perfbench/ and never writes
to it: its modules are imported without writing bytecode, and every job
writes under tmp_path.
"""

import sys
from pathlib import Path

from dgopt import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_catalog_seed_0_writes_its_recorded_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import run
    import workloads

    checker = checks.Checker("catalog", 0)
    assert checker.reference
    jobs = workloads.unit_jobs("catalog", 0, tmp_path)
    assert {job.name for job in jobs} == set(checker.reference)
    problems = {job.name: checker.check(job, run.run_job(cli, job))
                for job in jobs}
    assert {name: p for name, p in problems.items() if p} == {}
