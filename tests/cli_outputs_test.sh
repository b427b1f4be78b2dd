#!/bin/sh
# Every file the CLI writes is checked, and every command honours the
# observability flags:
#   * an unwritable output path exits 1 with "cannot write <path>" and no
#     "wrote ... <path>" line (run's CSV and telemetry outputs, world's
#     zone file);
#   * generate --shard, merge and analyze --store write a trace holding
#     their root span, and a metrics file;
#   * serve --listen writes its trace after SIGINT, and rejects
#     --watchdog-timeout-s with exit 2.
#
# Usage: cli_outputs_test.sh <ddosrepro binary> <scratch directory>
set -u
bin=$1
dir=$2/cli_outputs.$$
mkdir -p "$dir" || exit 1
pid=
cleanup() {
  if [ -n "$pid" ]; then
    kill -INT "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
  fi
  rm -rf "$dir"
}
trap cleanup EXIT
trap 'exit 1' INT TERM
bad=$dir/missing
small="--domains 2000 --providers 40 --scale 400 --threads 2"

fail() {
  echo "FAIL: $1"
  cat "$dir/out"
  exit 1
}

# expect_cannot_write <path> <command...>
expect_cannot_write() {
  path=$1
  shift
  "$@" >"$dir/out" 2>&1
  status=$?
  [ "$status" -eq 1 ] || fail "exit $status, want 1: $*"
  grep -qxF "cannot write $path" "$dir/out" || fail "no 'cannot write': $*"
  if grep '^wrote ' "$dir/out" | grep -qF "$path"; then
    fail "claims to have written $path: $*"
  fi
}

expect_cannot_write "$bad/e.csv" "$bin" run $small --events-csv "$bad/e.csv"
expect_cannot_write "$bad/f.csv" "$bin" run $small --feed-csv "$bad/f.csv"
expect_cannot_write "$bad/t.jsonl" \
  "$bin" run $small --telemetry-out "$bad/t.jsonl"
expect_cannot_write "$bad/z.zone" \
  "$bin" world $small --zone nl --out "$bad/z.zone"

# expect_trace <trace file> <span name> <metrics file>
expect_trace() {
  grep -qF "\"name\":\"$2\"" "$1" || fail "no $2 span in $1"
  [ -s "$3" ] || fail "no metrics file $3"
}

"$bin" generate --shard 0/1 --store "$dir/s.drs" $small \
  --trace-out "$dir/shard.json" --metrics-out "$dir/shard.m" \
  >"$dir/out" 2>&1 || fail "generate --shard"
expect_trace "$dir/shard.json" run_shard "$dir/shard.m"
"$bin" merge "$dir/m.drs" "$dir/s.drs" \
  --trace-out "$dir/merge.json" --metrics-out "$dir/merge.m" \
  >"$dir/out" 2>&1 || fail "merge"
expect_trace "$dir/merge.json" store.merge "$dir/merge.m"
"$bin" analyze --store "$dir/m.drs" \
  --trace-out "$dir/analyze.json" --metrics-out "$dir/analyze.m" \
  --metrics-format openmetrics >"$dir/out" 2>&1 || fail "analyze --store"
expect_trace "$dir/analyze.json" store.scan "$dir/analyze.m"

"$bin" serve --store "$dir/m.drs" --listen 127.0.0.1:0 \
  --watchdog-timeout-s 5 >"$dir/out" 2>&1
status=$?
[ "$status" -eq 2 ] || fail "serve --listen --watchdog-timeout-s: exit $status"

"$bin" serve --store "$dir/m.drs" --listen 127.0.0.1:0 --threads 1 \
  --trace-out "$dir/listen.json" >"$dir/out" 2>&1 &
pid=$!
n=0
until grep -q '^listening on ' "$dir/out"; do
  if [ "$n" -ge 300 ] || ! kill -0 "$pid" 2>/dev/null; then
    fail "no 'listening on' line"
  fi
  sleep 0.1
  n=$((n + 1))
done
kill -INT "$pid"
wait "$pid"
status=$?
pid=
[ "$status" -eq 0 ] || fail "serve --listen: exit $status after SIGINT"
grep -qF '"name":"serve.load_engine"' "$dir/listen.json" 2>/dev/null ||
  fail "no serve.load_engine span in the --listen trace"
echo "ok"
