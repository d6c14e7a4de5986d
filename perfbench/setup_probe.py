"""Set-up probe: import dgopt, start BLAS, build a workload's inputs.

Run by run.py as ``python3 perfbench/setup_probe.py <workload> <seed>``
from the checkout root; prints ``ready`` when the first workload call
could start, which is the end of the span set-up time measures.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from dgopt import cli  # noqa: E402,F401

import workloads  # noqa: E402


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    a = np.ones((256, 64), dtype=np.float32)
    a.T @ a  # first BLAS call starts its thread pool
    workloads.unit_jobs(workload, seed, Path("perfbench/out/work") / workload)
    workloads.build_program_inputs(workload, seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
