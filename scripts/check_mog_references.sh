#!/usr/bin/env bash
# Check both MoG benchmark workloads against perfbench's recorded
# reference outputs, one short untraced run per reference seed (0-19):
#   bash scripts/check_mog_references.sh
# Prints "workload seed correct failed" per run; exits 1 if any run is
# incorrect.  Run it after any change that can move MoG output bits.
set -u
cd "$(dirname "$0")/.."
results=$(mktemp -d)
trap 'rm -rf "$results"' EXIT
status=0
for workload in mog_dg mog_baselines; do
    for seed in $(seq 0 19); do
        line=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
                   --seconds 1 --trace 0 --results-dir "$results" | tail -n 1 |
               python3 -c 'import json, sys; r = json.load(sys.stdin)
print(str(r["correct"]).lower(), r["failed"])' 2>/dev/null) || line="false ?"
        echo "$workload $seed $line"
        [ "${line%% *}" = true ] || status=1
    done
done
exit $status
