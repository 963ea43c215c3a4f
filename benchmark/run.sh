#!/usr/bin/env bash
# The repository's benchmark, one command. Run from the repository root:
#
#   benchmark/run.sh [--seed N] [--workload NAME|all] [--seconds N]
#                    [--trace 0|1 | --traced] [--smoke]
#   benchmark/run.sh --repeat K [--seed N] [--workload NAME|all]
#   benchmark/run.sh --compare BASE_DIR CANDIDATE_DIR
#
# Builds benchmark/ (a cargo package of its own; nothing outside benchmark/
# is written) and runs each workload in its own process, so the provenance
# log, allocator state and caches of one workload never reach the next.
# Every process prints its metrics by name and unit, checks its outputs,
# writes benchmark/out/<workload>.json and ends with one JSON line.
# Exit status is nonzero when a build fails or an output check fails.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"
all=(cold-verify hot-verify open-rate live-ingest)

seed=42
workloads=("${all[@]}")
repeat=0
compare=()
pass=()   # flags handed through to every run

while (($#)); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --workload)
      if [[ "$2" == all ]]; then workloads=("${all[@]}"); else workloads=("$2"); fi
      shift 2 ;;
    --seconds | --trace) pass+=("$1" "$2"); shift 2 ;;
    --traced) pass+=(--trace 1); shift ;;
    --smoke) pass+=(--smoke); shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --compare) compare=("$2" "$3"); shift 3 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

# Diagnostics go to stderr so the last line of stdout stays the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/verifai-benchmark"

if ((${#compare[@]})); then
  exec "$bin" compare "${compare[@]}"
fi

run_set() { # $1 = output directory
  local status=0
  for workload in "${workloads[@]}"; do
    "$bin" run --workload "$workload" --seed "$seed" --out "$1" ${pass[@]+"${pass[@]}"} || status=1
  done
  return "$status"
}

if ((repeat > 0)); then
  status=0
  sets=()
  for ((k = 1; k <= repeat; k++)); do
    sets+=("$out/set-$k")
    run_set "$out/set-$k" || status=1
  done
  "$bin" summarize "${sets[@]}" || status=1
  exit "$status"
fi

run_set "$out"
