"""Record the reference outputs the benchmark checks runs against.

Usage, from the root of a dgopt checkout:

    python3 perfbench/record_reference.py --seeds 0-19

Runs one unit of every workload per seed and writes the catalog job
digests and the MoG log and sample statistics to
``perfbench/reference.json``.  Record only from a commit whose outputs
are known to be right: every later run of a recorded seed must match.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 0-19")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    from dgopt import cli

    import provenance

    reference = checks.load_reference()
    reference["recorded_from"] = provenance.source_digest(Path.cwd())
    for workload in workloads.WORKLOADS:
        work_dir = BENCH_DIR / "out" / "record" / workload
        work_dir.mkdir(parents=True, exist_ok=True)
        for seed in parse_seeds(args.seeds):
            checker = checks.Checker(workload, seed)
            checker.reference = None
            jobs = workloads.unit_jobs(workload, seed, work_dir)
            _, messages, failed = run.run_unit(cli, jobs, checker)
            if failed:
                print("\n".join(messages), file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = {
                job.name: checks.signature(job) for job in jobs}
            print(f"recorded {workload} seed {seed}", flush=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
