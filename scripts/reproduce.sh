#!/usr/bin/env bash
# One-command reproduction: configure, build, run the full test suite and
# every experiment bench, capturing outputs at the repo root.
#
# Always builds in its own out-of-source directory (build-reproduce) so it
# can neither clobber nor silently depend on any other build tree.  The
# benches run from inside that directory, so a bench that writes its
# default JSON snapshot (bench_shard) leaves the committed one alone.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-reproduce

GENERATOR=()
if command -v ninja > /dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release "${GENERATOR[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 | tee test_output.txt

: > bench_output.txt
for b in "$BUILD_DIR"/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  {
    echo "====================================================="
    echo "== $(basename "$b")"
    echo "====================================================="
    (cd "$BUILD_DIR" && "./bench/$(basename "$b")") 2>&1
  } | tee -a bench_output.txt
done

echo "Done: test_output.txt and bench_output.txt written."
