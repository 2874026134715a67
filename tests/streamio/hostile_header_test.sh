#!/bin/sh
# A 32-byte stream header with n = 2^32 - 1 passes the format's header
# check, yet at --rounds 2 that n asks for ~13 TB of sketch state.
# `distsketch_stream ingest` must refuse it before allocating anything:
# exit 1 with an `invalid header: state-too-large` line on stderr.
#
# usage: hostile_header_test.sh <path to distsketch_stream>
set -u
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# Little-endian header: magic "DSTR", version 1, n = 0xFFFFFFFF,
# 0 updates, seed 0.
printf 'DSTR\001\000\000\000\377\377\377\377\000\000\000\000' \
  > "$dir/hostile.stream"
printf '\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000\000' \
  >> "$dir/hostile.stream"

"$1" ingest "$dir/hostile.stream" --rounds 2 2> "$dir/stderr"
status=$?
cat "$dir/stderr" >&2
if [ "$status" -ne 1 ]; then
  echo "expected exit 1, got $status" >&2
  exit 1
fi
grep -q '^invalid header: state-too-large n=4294967295 ' "$dir/stderr"
