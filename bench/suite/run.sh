#!/usr/bin/env bash
# The benchmark of record (bench/suite/README.md): build ds_bench from this
# checkout, then run it.  Run from the repo root.
#
#   bench/suite/run.sh [--workload NAME]... [--seed N] [--seconds S]
#                      [--trace 0|1] [--repeat K] [--out DIR]
#
# One --workload and no --repeat/--out: runs that workload once; the last
# line of stdout is its JSON result.  Otherwise runs the named workloads
# (default: all four) K times, alternating between them, and with --out
# saves each run's stdout as DIR/<workload>.<i>.txt for compare.py.
# --trace 1 also writes each run's Chrome trace to <build>/traces/.
# The build goes to $CARGO_TARGET_DIR, else .bench_build.
set -euo pipefail

suite="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
workloads=()
seed=1
seconds=20
trace=0
repeat=1
out=""

while (($#)); do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

jobs="$(nproc)"
((jobs > 4)) && jobs=4
cmake -S "$suite" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" >&2

run_one() {
  local args=(--workload "$1" --seed "$seed" --seconds "$seconds"
              --trace "$trace")
  if [[ "$trace" == 1 ]]; then
    mkdir -p "$build/traces"
    args+=(--trace-out "$build/traces/$1.seed$seed.json")
  fi
  "$build/ds_bench" "${args[@]}"
}

if ((${#workloads[@]} == 1 && repeat == 1)) && [[ -z "$out" ]]; then
  run_one "${workloads[0]}"
  exit
fi

((${#workloads[@]})) || workloads=(sweep-dmm sweep-agm wire-easycc stream-rmat)
[[ -n "$out" ]] && mkdir -p "$out"
status=0
for ((r = 0; r < repeat; ++r)); do
  for w in "${workloads[@]}"; do
    if [[ -n "$out" ]]; then
      i=1
      while [[ -e "$out/$w.$i.txt" ]]; do i=$((i + 1)); done
      run_one "$w" | tee "$out/$w.$i.txt" || status=1
    else
      run_one "$w" || status=1
    fi
  done
done
exit "$status"
