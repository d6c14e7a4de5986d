#!/usr/bin/env python3
"""How much room the MoG benchmark runs leave against their references.

Stdlib and numpy only; it reads perfbench/ and changes nothing there:

    python3 scripts/mog_reference_margin.py [--workloads mog_dg,mog_baselines]
                                            [--seeds 0,1,...]

For each reference seed of the chosen MoG workloads (default: both, every
seed in perfbench/reference.json) it runs one unit's jobs
(perfbench/workloads.unit_jobs) in a temporary directory, each through
the benchmark's own perfbench/run.run_job and checks.Checker.  The
checker covers the exit code, finite outputs, "status ok", the float64
initial objective and the recorded outputs within MOG_RTOL/MOG_ATOL.
It prints one line per job: workload, seed, job, the largest ratio
|got - want| / (MOG_ATOL + MOG_RTOL * |want|) over the job's log and
sample statistics (perfbench/checks.mog_summary), and the entry where it
is.  A job the checker fails reads inf, followed by the checker's
messages.  Exits 1 if any job fails the checker or has a ratio above 1,
else 0.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True   # no __pycache__ under perfbench/

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dgopt import cli  # noqa: E402

MOG_WORKLOADS = ("mog_dg", "mog_baselines")


def margin(got: dict, want: dict):
    """(largest ratio, where) over the log and the sample statistics,
    which have the recorded shapes: checks.Checker fails any other."""
    worst, where = 0.0, ""
    for part in ("log", "samples"):
        a = np.array(got[part], dtype=float)
        b = np.array(want[part], dtype=float)
        ratio = (np.abs(a - b)
                 / (checks.MOG_ATOL + checks.MOG_RTOL * np.abs(b)))
        at = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
        if ratio[at] > worst:
            worst = float(ratio[at])
            where = (f"log row {at[0]} col {at[1]}" if part == "log"
                     else f"sample stat {at[0]}")
    return worst, where


def job_margin(checker, job, want):
    """Run one job as the benchmark does and return (largest ratio,
    where), or (inf, the checker's messages) when the checker fails it."""
    problems = checker.check(job, run.run_job(cli, job))
    if problems:
        return math.inf, "; ".join(problems)
    return margin(checks.mog_summary(job), want)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(MOG_WORKLOADS),
                        help="comma-separated MoG workloads")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated reference seeds (default all)")
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    for name in args.workloads:
        if name not in MOG_WORKLOADS:
            parser.error(f"unknown MoG workload {name!r}; "
                         f"known: {', '.join(MOG_WORKLOADS)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    reference = checks.load_reference()
    worst = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workloads:
            recorded = reference[workload]
            seeds = (sorted(recorded, key=int) if args.seeds is None
                     else args.seeds.split(","))
            for seed in seeds:
                if seed not in recorded:
                    print(f"error: {workload} has no reference seed {seed}",
                          file=sys.stderr)
                    return 2
                out_dir = Path(tmp) / workload / seed
                checker = checks.Checker(workload, int(seed))
                for job in workloads.unit_jobs(workload, int(seed), out_dir):
                    ratio, where = job_margin(checker, job,
                                              recorded[seed][job.name])
                    worst = max(worst, ratio)
                    print(f"{workload} {seed} {job.name} {ratio:.4f} {where}",
                          flush=True)
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
