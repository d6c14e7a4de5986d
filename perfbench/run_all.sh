#!/usr/bin/env bash
# Run every workload of the dgopt benchmark in turn, from a checkout root:
#   bash perfbench/run_all.sh [seed] [seconds] [trace]
# Each workload runs in its own process, so set-up time and peak memory
# stay per workload; the exit code is non-zero if any run failed to report.
set -u
seed=${1:-1}
seconds=${2:-30}
trace=${3:-0}
status=0
for workload in mog_dg mog_baselines catalog; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" || status=1
done
exit $status
