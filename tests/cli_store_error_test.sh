#!/bin/sh
# An unwritable --store path must fail `generate`, `generate --shard` and
# `merge` with exit status 1 and a "store error:" diagnostic, and leave no
# temp file behind.
#
# Usage: cli_store_error_test.sh <ddosrepro binary> <scratch directory>
set -u
bin=$1
dir=$2/cli_store_error.$$
mkdir -p "$dir" || exit 1
trap 'rm -rf "$dir"' EXIT
bad=$dir/missing/x.drs
small="--domains 2000 --providers 40 --scale 400 --threads 2"

expect_store_error() {
  "$@" >"$dir/out" 2>&1
  status=$?
  if [ "$status" -ne 1 ] || ! grep -q '^store error:' "$dir/out"; then
    echo "FAIL (exit $status): $*"
    cat "$dir/out"
    exit 1
  fi
}

expect_store_error "$bin" generate --store "$bad" $small
expect_store_error "$bin" generate --shard 0/2 --store "$bad" $small
"$bin" generate --shard 0/1 --store "$dir/shard.drs" $small >/dev/null || exit 1
expect_store_error "$bin" merge "$bad" "$dir/shard.drs"

leftover=$(find "$dir" -name '*.tmp.*')
if [ -n "$leftover" ]; then
  echo "FAIL: temp files left behind: $leftover"
  exit 1
fi
echo "ok"
