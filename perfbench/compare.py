"""Compare two sets of benchmark results, metric by metric.

Usage:

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds untraced result files written by run.py (for
example two ``--results-dir`` targets, one per commit).  For every
(workload, metric) the report gives each side's median and quartiles,
the share of pairs the after side won (pairs are matched by seed, ties
count for neither) and a verdict:

* ``better``: after wins at least 9/10 of the pairs and the medians
  differ by more than the before side's interquartile range;
* ``unresolved``: not better, and the before side's own spread
  (IQR / median) is wider than the metric's bound, unless every after
  run reads better than every before run;
* ``worse within bound``: the after median is no worse than the before
  median by more than the bound;
* ``worse``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

WIN_SHARE = 0.9


def load(directory) -> dict:
    """{workload: [(seed, end_to_end metrics), ...]} from untraced results."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        res = json.loads(path.read_text())
        if res.get("trace") == 0 and res.get("end_to_end"):
            out.setdefault(res["workload"], []).append((res["seed"], res["end_to_end"]))
    return out


def _pairs(b_runs, a_runs, name) -> list:
    """Runs matched by seed (in run order within a seed); by order when no
    seed is shared."""
    seeds = sorted({s for s, _ in b_runs} & {s for s, _ in a_runs})
    if not seeds:
        return list(zip((r[name] for _, r in b_runs), (r[name] for _, r in a_runs)))
    return [pair for seed in seeds
            for pair in zip((r[name] for s, r in b_runs if s == seed),
                            (r[name] for s, r in a_runs if s == seed))]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(before: list, after: list, pairs: list, better: str, bound):
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(before)
    _, a_med, _ = quartiles(after)
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    share = wins / len(pairs) if pairs else 0.0
    gain = sign * (a_med - b_med)
    if share >= WIN_SHARE and gain > b_q3 - b_q1:
        return "better", share
    bound = 0.0 if bound is None else bound
    all_better = (min(sign * y for y in after) > max(sign * x for x in before))
    if b_med and (b_q3 - b_q1) / abs(b_med) > bound and not all_better:
        return "unresolved", share
    worse_by = -gain / abs(b_med) if b_med else (0.0 if gain >= 0 else float("inf"))
    return ("worse within bound" if worse_by <= bound else "worse"), share


def compare(before_dir, after_dir) -> list:
    # metrics_spec reads BENCHMARK.json from the working directory
    import metrics_spec

    before, after = load(before_dir), load(after_dir)
    rows = []
    for workload in sorted(set(before) & set(after)):
        b_runs, a_runs = before[workload], after[workload]
        names = [n for n in b_runs[0][1]
                 if all(n in r for _, r in b_runs + a_runs)]
        for name in names:
            b_vals = [r[name] for _, r in b_runs]
            a_vals = [r[name] for _, r in a_runs]
            pairs = _pairs(b_runs, a_runs, name)
            v, share = verdict(b_vals, a_vals, pairs, metrics_spec.better_of(name),
                               metrics_spec.bound_of(name))
            rows.append({"workload": workload, "metric": name,
                         "unit": metrics_spec.unit_of(name),
                         "before": quartiles(b_vals), "after": quartiles(a_vals),
                         "n": (len(b_vals), len(a_vals)), "pairs": len(pairs),
                         "won": share, "verdict": v})
    fmt = "{:<14} {:<22} {:>30} {:>30} {:>6} {:>5}  {}"
    print(fmt.format("workload", "metric", "before q1/median/q3",
                     "after q1/median/q3", "pairs", "won", "verdict"))
    for r in rows:
        b = "/".join(f"{x:.4g}" for x in r["before"])
        a = "/".join(f"{x:.4g}" for x in r["after"])
        print(fmt.format(r["workload"], r["metric"], b, a, r["pairs"],
                         f"{r['won']:.2f}", r["verdict"]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two result sets.")
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    rows = compare(args.before, args.after)
    return 0 if rows else 1


if __name__ == "__main__":
    sys.exit(main())
