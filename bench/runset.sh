#!/usr/bin/env bash
# Runs every workload in BENCHMARK.json once per seed and appends each run's
# standard output to one file — a "set" for `bench compare`.
#   bash bench/runset.sh out.txt [first_seed] [runs] [trace]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$1"; first="${2:-1}"; runs="${3:-10}"; trace="${4:-0}"
read -r seconds workloads < <(bash "$here/run.sh" plan)
for ((seed = first; seed < first + runs; seed++)); do
  for w in $workloads; do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" >>"$out"
  done
done
