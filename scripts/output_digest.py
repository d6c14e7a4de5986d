#!/usr/bin/env python3
"""The sha256 of every file a benchmark unit writes, figures included.

Stdlib and numpy only; it reads perfbench/ and changes nothing there:

    python3 scripts/output_digest.py [--workloads catalog] [--seeds 0-19]

For each chosen workload and seed it runs one unit's jobs
(perfbench/workloads.unit_jobs) in a temporary directory, each through
the benchmark's own perfbench/run.run_job, and prints one line per file
the job wrote: workload, seed, job, file name and the file's sha256.
perfbench's checker reads a job's csv and json outputs only; this
listing also covers its .svg figure.  Run it on two checkouts and diff
the listings to see whether a change moved any output byte.  --seeds
takes a comma-separated list of seeds and first-last ranges.  Exits 1
if any job fails (non-zero exit code or an exception), else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True   # no __pycache__ under perfbench/

import run  # noqa: E402
import workloads  # noqa: E402
from dgopt import cli  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="catalog",
                        help="comma-separated workloads")
    parser.add_argument("--seeds", default="0",
                        help="seeds, e.g. 0-19 or 0,3,5-7")
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    for name in args.workloads:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    args.seeds = parse_seeds(args.seeds)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workloads:
            for seed in args.seeds:
                out_dir = Path(tmp) / workload / str(seed)
                out_dir.mkdir(parents=True)
                for job in workloads.unit_jobs(workload, seed, out_dir):
                    before = set(out_dir.iterdir())
                    result = run.run_job(cli, job)
                    if result.error is not None or result.rc != 0:
                        failed = True
                        print(f"error: {workload} {seed} {job.name}: "
                              f"{result.error or f'exit code {result.rc}'}",
                              file=sys.stderr)
                    for path in sorted(set(out_dir.iterdir()) - before):
                        print(f"{workload} {seed} {job.name} {path.name} "
                              f"{sha256(path)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
