"""Produce the mixture-of-Gaussians acceptance artifacts.

Runs the full protocol (5 seeds of dg with k=10 and 5 seeds of gda,
full batch, learning rate 2e-4) and writes one JSON row per run plus an
aggregate verdict under artifacts/mog_acceptance/.  Training is
deterministic per seed, so re-running reproduces the artifacts bit for
bit; tests/test_acceptance.py asserts the criterion thresholds against
these files.

The eg and co baselines run on the same protocol with --algs eg,co.
Write them to a separate --out: the criterion's runtime check sums the
wall time of every run in its verdict.json.

--k sets dg's inner step count (default 10, the protocol's); every
algorithm's logged DG metric uses it too, so each <alg>_seed<N>.json
records it as dg_k.  An existing <alg>_seed<N>.json is reused instead of
re-run, but only if it was made with the requested iteration count and
k; any other refuses the whole invocation (exit 2) before anything runs.

verdict.json is written only when every requested algorithm has all of
the protocol's seeds 1-5 in the output directory, and then lists those
runs.  Otherwise the invocation prints the missing <alg>_seed<N>.json
names and leaves any earlier verdict as it was.

One process trains its runs one after another.  To use more CPUs, start
one process per CPU, pinned with taskset; neither writes a verdict, and
a last invocation collects it from the finished artifacts.  A dg seed
takes about ten times as long as a gda seed, so on two CPUs one side
runs two dg seeds and then every gda seed, and the other three dg seeds:

    (taskset -c 0 python scripts/run_mog_acceptance.py --algs dg --seeds 1,2
     taskset -c 0 python scripts/run_mog_acceptance.py --algs gda) &
    taskset -c 1 python scripts/run_mog_acceptance.py --algs dg --seeds 3,4,5 &
    wait
    python scripts/run_mog_acceptance.py

A process pinned to one CPU runs the two halves of each duality-gap
evaluation (and co's two finite-difference sides) in sequence; one that
may use two or more runs them on two threads.

Each <alg>_seed<N>.json holds a "manifest" of what made it: argv, the
git revision (null outside a git checkout), the numpy version and the
thread setup the run used (openblas_pinned, cpu_mask, concurrent_halves).

At each log row a run prints its iteration, iterations per second so
far and the estimated time left to stderr.

Usage: python scripts/run_mog_acceptance.py [--iters N] [--k K]
           [--seeds a,b,...] [--algs gda,dg,eg,co] [--out DIR]
"""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dgopt.mog import MogGanGame, train_mog  # noqa: E402
from dgopt.outputs import write_json  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "artifacts",
                           "mog_acceptance")
ALGORITHMS = ("gda", "dg", "eg", "co")
PROTOCOL_SEEDS = (1, 2, 3, 4, 5)


def git_revision():
    """HEAD of the checkout this script lives in, or None without git."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=os.path.dirname(__file__),
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def print_progress(alg, seed):
    """A train_mog progress callback: iteration, it/s and ETA on stderr."""
    def progress(it, iterations, elapsed):
        rate = it / elapsed
        eta = f"{(iterations - it) / rate:.0f}s" if rate else "?"
        print(f"{alg} seed {seed}: iteration {it}/{iterations}, "
              f"{rate:.2f} it/s, ETA {eta}", file=sys.stderr, flush=True)
    return progress


def run_one(alg, seed, iters, k, out_dir):
    t0 = time.time()
    log = train_mog(alg, MogGanGame(seed), iterations=iters, dg_k=k,
                    log_interval=100, progress=print_progress(alg, seed))
    wall = time.time() - t0

    def logged(name, row=-1):
        return float(log.column(name)[row])

    row = {
        "algorithm": alg,
        "seed": seed,
        "iterations": iters,
        "dg_k": k,
        "status": log.status,
        "wall_seconds": wall,
        "initial_dg_metric": logged("dg_metric", 0),
        "final_dg_metric": logged("dg_metric"),
        "final_mode_fracs": [logged(f"mode_frac_{c}")
                             for c in ("m4", "0", "4")],
        "final_disc_real_median": logged("disc_real_median"),
        "final_disc_fake_median": logged("disc_fake_median"),
        "final_disc_union_median": log.final_disc_union_median,
        "final_value": logged("value"),
        "manifest": {"argv": sys.argv, "git_revision": git_revision(),
                     "numpy_version": np.__version__, **log.thread_setup},
    }
    log.write_csv(os.path.join(out_dir, f"{alg}_seed{seed}.csv"))
    log.write_samples_csv(os.path.join(out_dir, f"{alg}_seed{seed}_samples.csv"))
    write_json(os.path.join(out_dir, f"{alg}_seed{seed}.json"), row)
    print(f"{alg} seed {seed}: {wall:.0f}s status={log.status} "
          f"fracs={row['final_mode_fracs']} dg {row['initial_dg_metric']:.5f}"
          f"->{row['final_dg_metric']:.5f} "
          f"disc_union={row['final_disc_union_median']:.3f}", flush=True)
    return row


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--iters", type=int, default=20000)
    ap.add_argument("--k", type=int, default=10,
                    help="dg inner step count, also used by every "
                         "algorithm's logged DG metric")
    ap.add_argument("--seeds", type=str, default="1,2,3,4,5")
    ap.add_argument("--algs", type=str, default="gda,dg",
                    help="subset of gda,dg,eg,co to run; the verdict lists "
                         "only these algorithms' runs for seeds 1-5, so "
                         "write eg and co runs to a separate --out")
    ap.add_argument("--out", type=str, default=DEFAULT_OUT)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    algs = args.algs.split(",")
    unknown = sorted(set(algs) - set(ALGORITHMS))
    if unknown:
        ap.error(f"--algs takes {','.join(ALGORITHMS)}, not "
                 f"{','.join(unknown)}")
    if args.k < 0:
        ap.error(f"--k must be at least 0, not {args.k}")
    os.makedirs(args.out, exist_ok=True)

    algs = [alg for alg in ALGORITHMS if alg in algs]
    runs = [(alg, seed) for alg in algs for seed in seeds]
    existing = {}
    for alg, seed in dict.fromkeys((alg, seed) for alg in algs
                                   for seed in (*seeds, *PROTOCOL_SEEDS)):
        marker = os.path.join(args.out, f"{alg}_seed{seed}.json")
        if os.path.exists(marker):
            with open(marker) as fh:
                row = json.load(fh)
            for key, want, what in (
                    ("iterations", args.iters, "{} iterations"),
                    ("dg_k", args.k, "k={}")):
                if row.get(key) != want:
                    ap.exit(2, f"{marker} was made with "
                               f"{what.format(row.get(key))}, not the "
                               f"requested {what.format(want)}; move it "
                               f"away or use another --out\n")
            existing[alg, seed] = row

    t0 = time.time()
    for alg, seed in runs:
        if (alg, seed) in existing:
            print(f"{alg} seed {seed}: reusing existing artifact", flush=True)
        else:
            existing[alg, seed] = run_one(alg, seed, args.iters, args.k,
                                          args.out)
    protocol = [(alg, seed) for alg in algs for seed in PROTOCOL_SEEDS]
    missing = [f"{alg}_seed{seed}.json" for alg, seed in protocol
               if (alg, seed) not in existing]
    if missing:
        print(f"no verdict: missing {', '.join(missing)}")
        return
    rows = [existing[run] for run in protocol]
    verdict = {
        "iterations": args.iters,
        "seeds": list(PROTOCOL_SEEDS),
        "total_wall_seconds": sum(r["wall_seconds"] for r in rows),
        "runs": rows,
    }
    path = os.path.join(args.out, "verdict.json")
    write_json(f"{path}.tmp", verdict)
    os.replace(f"{path}.tmp", path)
    print(f"total wall: {verdict['total_wall_seconds']:.0f}s "
          f"(this session: {time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
