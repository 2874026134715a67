#!/usr/bin/env bash
# Build the release preset and run the JSON-emitting benchmarks.
#
# Emits BENCH_parallel.json (schema in docs/PARALLELISM.md): wall time
# serial vs parallel, speedup, bits/player per case, and an "identical"
# flag certifying the determinism contract held. Exits nonzero if any
# parallel run diverged from its serial twin.
#
# Also emits BENCH_wire.json (schema in docs/WIRE.md): simulated vs
# loopback vs TCP wall time per case, players/sec, and the
# payload/framing/transport byte split, with a "payload_matches_sim"
# flag certifying the wire accounting contract. Exits nonzero if any
# wire session's payload bits diverged from the simulated CommStats.
#
# Both files carry a "metrics" block: the observability snapshot
# (docs/OBSERVABILITY.md) taken at the end of the run — pool, wire, and
# service counters/histograms alongside the timings.
#
# Also emits BENCH_engine.json (schema in docs/ENGINE.md): encode
# throughput, roofline figures (payload bytes/trial, encode/decode MB/s,
# encode bytes/cycle), and global allocation counts for the round engine
# with and without a SketchArena. Exits nonzero if the pooled steady
# state still allocates per vertex, its sketches diverge from the
# unpooled run, or — because the committed BENCH_engine.json is passed as
# --baseline — any case's encode MB/s drops below 80% of the committed
# figure (the no-regression gate; see docs/ENGINE.md "hot path").
#
# Also emits BENCH_shard.json (schema in docs/WIRE.md): the referee's
# absorb rate at 1/2/4 shards, each relative to 1 shard, with the same
# payload_matches_sim certification. Exits nonzero only on a
# correctness divergence, never on a slow run.
#
# Also emits BENCH_stream.json (schema in docs/STREAMING.md): turnstile
# stream ingestion serial vs pooled at 1/4/max threads, with a
# matches_serial flag certifying bit-identical sharded ingestion. Runs
# the small --quick case by default; set BENCH_STREAM_MODE=--full for
# the committed n >= 10^6 numbers (a few GB of RAM, several minutes).
# Exits nonzero if any pooled ingest diverged from its serial twin.
#
# Also emits BENCH_scenario.json (schema in docs/SCENARIOS.md): every
# registered scenario swept over its default grid, serial vs pooled, with
# the identical-fingerprint certification, plus the arena steady-state
# allocation gate on the sweep's per-trial encode path. Exits nonzero if
# any sweep diverged across thread counts or the arena'd steady state
# still allocates per vertex.
#
# Usage:
#   scripts/bench.sh                 # writes ./BENCH_parallel.json +
#                                    #   ./BENCH_wire.json + ./BENCH_engine.json
#                                    #   + ./BENCH_shard.json + ./BENCH_stream.json
#                                    #   + ./BENCH_scenario.json
#   scripts/bench.sh out.json        # custom BENCH_parallel.json path
#   scripts/bench.sh out.json wire.json engine.json shard.json stream.json scenario.json
#   DISTSKETCH_THREADS=4 scripts/bench.sh   # pin the pool width
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_parallel.json}"
WIRE_OUT="${2:-BENCH_wire.json}"
ENGINE_OUT="${3:-BENCH_engine.json}"
SHARD_OUT="${4:-BENCH_shard.json}"
STREAM_OUT="${5:-BENCH_stream.json}"
SCENARIO_OUT="${6:-BENCH_scenario.json}"
STREAM_MODE="${BENCH_STREAM_MODE:---quick}"
BUILD_DIR=build-release

# Never pass -G at a configured cache: CMake refuses to switch generators
# in place, so a cache configured with Make would make `-G Ninja` fail.
# Reconfigure with whatever generator the cache already has; only pick a
# generator (Ninja if present) on a fresh configure.
if [ -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake --preset release
elif command -v ninja > /dev/null 2>&1; then
  cmake --preset release -G Ninja
else
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_parallel bench_wire bench_engine bench_shard bench_stream bench_scenario

"$BUILD_DIR"/bench/bench_parallel "$OUT"
"$BUILD_DIR"/bench/bench_wire "$WIRE_OUT"
# Gate against the committed baseline when refreshing the default file in
# place; a custom output path is a fresh measurement, not a regression
# check against unrelated numbers.
if [ "$ENGINE_OUT" = "BENCH_engine.json" ] && [ -f BENCH_engine.json ]; then
  cp BENCH_engine.json "$BUILD_DIR/engine_baseline.json"
  "$BUILD_DIR"/bench/bench_engine "$ENGINE_OUT" --baseline "$BUILD_DIR/engine_baseline.json"
else
  "$BUILD_DIR"/bench/bench_engine "$ENGINE_OUT"
fi
"$BUILD_DIR"/bench/bench_shard "$SHARD_OUT"
"$BUILD_DIR"/bench/bench_stream "$STREAM_OUT" $STREAM_MODE
"$BUILD_DIR"/bench/bench_scenario "$SCENARIO_OUT"
