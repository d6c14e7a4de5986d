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

An existing <alg>_seed<N>.json is reused instead of re-run, but only
if it was made with the requested iteration count; any other refuses
the whole invocation (exit 2) before anything runs.

verdict.json is written only when every requested algorithm has all of
the protocol's seeds 1-5 in the output directory, and then lists those
runs.  Otherwise the invocation prints the missing <alg>_seed<N>.json
names and leaves any earlier verdict as it was.

One process trains its runs one after another.  To use more CPUs, start
one process per CPU, pinned with taskset; neither writes a verdict, and
a last invocation collects it from the finished artifacts:

    taskset -c 0 python scripts/run_mog_acceptance.py --seeds 1,2,3 &
    taskset -c 1 python scripts/run_mog_acceptance.py --seeds 4,5 &
    wait
    python scripts/run_mog_acceptance.py

A process pinned to one CPU runs the two halves of each duality-gap
evaluation in sequence; one that may use two or more runs them on two
threads.

Usage: python scripts/run_mog_acceptance.py [--iters N] [--seeds a,b,...]
           [--algs gda,dg,eg,co] [--out DIR]
"""

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dgopt.mog import train_mog  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "artifacts",
                           "mog_acceptance")
ALGORITHMS = ("gda", "dg", "eg", "co")
PROTOCOL_SEEDS = (1, 2, 3, 4, 5)


def run_one(alg, seed, iters, out_dir):
    t0 = time.time()
    log = train_mog(alg, seed=seed, iterations=iters, dg_k=10,
                    log_interval=100, dtype=np.float32)
    wall = time.time() - t0
    first, last = log.rows[0], log.rows[-1]
    row = {
        "algorithm": alg,
        "seed": seed,
        "iterations": iters,
        "status": log.status,
        "wall_seconds": wall,
        "initial_dg_metric": first[4],
        "final_dg_metric": last[4],
        "final_mode_fracs": [last[5], last[6], last[7]],
        "final_disc_real_median": last[8],
        "final_disc_fake_median": last[9],
        "final_disc_union_median": log.final_disc_union_median,
        "final_value": last[1],
    }
    log.write_csv(os.path.join(out_dir, f"{alg}_seed{seed}.csv"))
    log.write_samples_csv(os.path.join(out_dir, f"{alg}_seed{seed}_samples.csv"))
    with open(os.path.join(out_dir, f"{alg}_seed{seed}.json"), "w") as fh:
        json.dump(row, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{alg} seed {seed}: {wall:.0f}s status={log.status} "
          f"fracs={row['final_mode_fracs']} dg {row['initial_dg_metric']:.5f}"
          f"->{row['final_dg_metric']:.5f} "
          f"disc_union={row['final_disc_union_median']:.3f}", flush=True)
    return row


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--iters", type=int, default=20000)
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
            if row.get("iterations") != args.iters:
                ap.exit(2, f"{marker} was made with {row.get('iterations')} "
                           f"iterations, not the requested {args.iters}; "
                           f"move it away or use another --out\n")
            existing[alg, seed] = row

    t0 = time.time()
    for alg, seed in runs:
        if (alg, seed) in existing:
            print(f"{alg} seed {seed}: reusing existing artifact", flush=True)
        else:
            existing[alg, seed] = run_one(alg, seed, args.iters, args.out)
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
    with open(f"{path}.tmp", "w") as fh:
        json.dump(verdict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(f"{path}.tmp", path)
    print(f"total wall: {verdict['total_wall_seconds']:.0f}s "
          f"(this session: {time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
