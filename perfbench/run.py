"""dgopt benchmark: run one workload through ``dgopt.cli.main`` and report.

Usage, from the root of a dgopt checkout:

    python3 perfbench/run.py --workload mog_dg --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run repeats untraced units of the workload for the
given time and reports the end-to-end metrics.  With ``--trace 1`` it
repeats untraced units for half the time, then runs one traced unit and
reports the per-layer metrics.  Either way every job's outputs are
checked.  The run prints a table and a provenance block, saves the full
result under ``perfbench/out/results/`` and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


@dataclass
class JobResult:
    wall: float
    rc: object
    stdout: str
    stderr: str
    error: object = None


def run_job(cli, job, tracer=None) -> JobResult:
    out, err = io.StringIO(), io.StringIO()
    error = rc = None
    span = tracer.begin_job({"name": job.name, **job.label}) if tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except Exception as exc:  # a crash is a failed operation of the run
        error = f"{type(exc).__name__}: {exc}"
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    if tracer:
        tracer.end_job(span)
    return JobResult(wall, rc, out.getvalue(), err.getvalue(), error)


def run_unit(cli, jobs, checker, tracer=None):
    """Run every job once; returns (results, failure messages, failed jobs)."""
    results, messages, failed = [], [], 0
    for job in jobs:
        res = run_job(cli, job, tracer)
        results.append(res)
        problems = checker.check(job, res)
        messages.extend(problems)
        failed += bool(problems)
    return results, messages, failed


def setup_seconds(workload: str, seed: int) -> list:
    """Wall time from process start to ready-to-run, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(seed)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return times


def unit_metrics(workload, jobs, walls) -> dict:
    """wall_s and the throughputs of a unit whose jobs took ``walls``."""
    m = {"wall_s": sum(walls)}

    def rate(kind, **match):
        picked = [(j, w) for j, w in zip(jobs, walls) if j.kind == kind
                  and all(j.label.get(k) == v for k, v in match.items())]
        return sum(j.work() for j, _ in picked) / sum(w for _, w in picked)

    if workload == "mog_dg":
        m["mog_dg_iters_per_s"] = m["steps_per_s"] = rate("mog", alg="dg")
    elif workload == "mog_baselines":
        for alg in workloads.MOG_BASELINES:
            m[f"mog_{alg}_iters_per_s"] = rate("mog", alg=alg)
        m["steps_per_s"] = rate("mog")
    else:
        m["traj_steps_per_s"] = m["steps_per_s"] = rate("traj")
        m["landscape_nodes_per_s"] = rate("landscape")
        m["rate_samples_per_s"] = rate("rate")
    return m


def print_table(title: str, metrics: dict, unit_of):
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit_of(name)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one dgopt benchmark workload and report its metrics.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=None,
                        help="where the full result is saved "
                             "(default perfbench/out/results)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dgopt" / "cli.py").is_file():
        print(f"error: no dgopt sources under {ROOT / 'src'}; run from the "
              "root of a dgopt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from dgopt import cli

    import checks
    import layers
    import metrics_spec
    import provenance
    from tracing import Tracer

    work_dir = BENCH_DIR / "out" / "work" / args.workload
    results_dir = Path(args.results_dir or BENCH_DIR / "out" / "results")
    for d in (work_dir / "warmup", results_dir):
        d.mkdir(parents=True, exist_ok=True)

    setup_times = setup_seconds(args.workload, args.seed)
    checker = checks.Checker(args.workload, args.seed)
    for job in workloads.warmup_jobs(args.workload, args.seed, work_dir / "warmup"):
        run_job(cli, job)

    # untraced units: the end-to-end numbers
    jobs = workloads.unit_jobs(args.workload, args.seed, work_dir)
    budget = args.seconds / 2 if args.trace else args.seconds
    job_walls, unit_elapsed, messages = [], [], []
    attempted = failed = 0
    t_begin = time.perf_counter()
    while True:
        t_unit = time.perf_counter()
        results, unit_messages, unit_failed = run_unit(cli, jobs, checker)
        unit_elapsed.append(time.perf_counter() - t_unit)
        attempted += len(jobs)
        failed += unit_failed
        messages.extend(unit_messages)
        if not unit_failed:
            job_walls.append([r.wall for r in results])
        if (time.perf_counter() - t_begin + statistics.median(unit_elapsed)
                > budget):
            break
    # the median unit: each job's median wall over the passing units, so
    # a burst of host noise during one job of one unit does not move it
    median_walls = [statistics.median(w) for w in zip(*job_walls)]
    e2e = unit_metrics(args.workload, jobs, median_walls) if job_walls else {}
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "units": len(unit_elapsed),
              "unit_samples": [unit_metrics(args.workload, jobs, w)
                               for w in job_walls],
              "job_wall_s": dict(zip((j.name for j in jobs), median_walls)),
              "setup_samples_s": setup_times,
              "provenance": provenance.collect(ROOT, args)}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, unit_messages, unit_failed = run_unit(cli, jobs, checker, tracer)
        finally:
            tracer.uninstall()
        attempted += len(jobs)
        failed += unit_failed
        messages.extend(unit_messages)
        spans = tracer.arrays()
        traced_wall = sum(r.wall for r in traced)
        untraced_wall = e2e.get("wall_s", traced_wall)
        rate_ns = (1e9 / e2e["rate_samples_per_s"]
                   if "rate_samples_per_s" in e2e else 0.0)
        per_layer = layers.layer_metrics(spans, traced_wall, untraced_wall, rate_ns)
        per_layer.update(layers.mlp_layer_timings(args.seed))
        trace_path = work_dir / "trace.npz"
        spans.save(trace_path)
        result.update(per_layer=per_layer, traced_wall_s=traced_wall,
                      span_table=layers.span_table(spans),
                      trace_file=str(trace_path.relative_to(ROOT)))

    e2e["failed_frac"] = failed / attempted
    result.update(end_to_end=e2e, attempted=attempted, failed=failed,
                  failures=messages[:50])
    name = (f"{args.workload}_seed{args.seed}_trace{args.trace}_"
            f"{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}.json")
    with open(results_dir / name, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"dgopt benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(unit_elapsed)} untraced unit(s) of {len(jobs)} job(s), "
          f"trace {args.trace}")
    print_table("end-to-end (median unit of the untraced units)", e2e,
                metrics_spec.unit_of)
    if args.trace:
        print_table("per-layer (traced unit; MLP layers timed after it)",
                    result["per_layer"], metrics_spec.unit_of)
        print("== spans of the traced unit: calls, busy s, self s, p50 ms, p90 ms")
        for row in result["span_table"]:
            print("  {name:<32} {calls:>9} {busy_s:>10.4f} {self_s:>10.4f} "
                  "{p50_ms:>10.4f} {p90_ms:>10.4f}".format(**row))
    print("== provenance")
    for key, value in result["provenance"].items():
        print(f"  {key}: {value}")
    for message in messages[:20]:
        print(f"FAILED {message}")
    print(f"result saved to {(results_dir / name)}")

    if args.trace:
        wanted, source = metrics_spec.per_layer_names(), result["per_layer"]
    else:
        wanted, source = metrics_spec.end_to_end_names(), e2e
    metrics = {k: {"value": source[k], "unit": metrics_spec.unit_of(k)}
               for k in wanted if k in source}
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(wanted),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
