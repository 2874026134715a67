#!/bin/sh
# Flags of both command-line tools are checked: a value with letters in
# it, one too large for the field it sets, a player count or batch size
# of 0, or a flag the command does not read must exit 2 with a message
# naming the flag, before the tool does any work.
#
#   distsketch_stream ingest --rounds 4294967298   (does not fit unsigned)
#   distsketch_stream ingest --rounds abc
#   distsketch_stream ingest --batch 0             (a batch holds an update)
#   distsketch_stream generate ... --roundz 3      (misspelled flags)
#   distsketch_stream ingest ... --theads 4
#   distsketch_service serve --port 70000          (does not fit uint16_t)
#   distsketch_service serve --players abc
#   distsketch_service player --players 0          (no vertex shard to own)
#   distsketch_service serve --portt 5             (misspelled flag)
#   distsketch_service player --shards 2           (a flag only serve reads)
#
# usage: numeric_flags_test.sh <distsketch_stream> <distsketch_service>
set -u
stream_tool=$1
service_tool=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0

# expect_bad_flag FLAG COMMAND...: COMMAND must exit 2 naming FLAG.
expect_bad_flag() {
  flag=$1
  shift
  "$@" > "$dir/stdout" 2> "$dir/stderr"
  status=$?
  if [ "$status" -ne 2 ] || ! grep -q -e "$flag" "$dir/stderr"; then
    echo "FAIL: $* exited $status; stderr:" >&2
    cat "$dir/stderr" >&2
    failures=$((failures + 1))
  else
    echo "ok: $* -> $(head -n 1 "$dir/stderr")"
  fi
}

"$stream_tool" generate --out "$dir/s.stream" --n 256 --edges 1024 \
  > /dev/null || exit 1
expect_bad_flag --rounds "$stream_tool" ingest "$dir/s.stream" \
  --rounds 4294967298
expect_bad_flag --rounds "$stream_tool" ingest "$dir/s.stream" --rounds abc
expect_bad_flag --batch "$stream_tool" ingest "$dir/s.stream" --batch 0
expect_bad_flag --roundz "$stream_tool" generate --out "$dir/t.stream" \
  --n 256 --edges 1024 --roundz 3 --sede 9
expect_bad_flag --theads "$stream_tool" ingest "$dir/s.stream" --rounds 2 \
  --theads 4
# A short --timeout-ms keeps a tool that accepts the port from waiting
# long for players that never come.
expect_bad_flag --port "$service_tool" serve --timeout-ms 200 --port 70000
expect_bad_flag --players "$service_tool" serve --timeout-ms 200 \
  --players abc
expect_bad_flag --players "$service_tool" player --timeout-ms 200 \
  --players 0
expect_bad_flag --portt "$service_tool" serve --timeout-ms 200 --portt 5
expect_bad_flag --shards "$service_tool" player --timeout-ms 200 --shards 2
[ "$failures" -eq 0 ]
