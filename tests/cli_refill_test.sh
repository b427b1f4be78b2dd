#!/bin/sh
# `serve --listen --refill` must reload a store published by rename even
# when the new file carries the old file's mtime: the poll keys on the
# file's identity (device, inode, size, mtime), not on the mtime alone.
#
# Usage: cli_refill_test.sh <ddosrepro binary> <scratch directory>
set -u
bin=$1
dir=$2/cli_refill.$$
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
small="--domains 2000 --providers 40 --scale 400 --threads 2"

"$bin" generate --store "$dir/a.drs" $small >/dev/null || exit 1
"$bin" generate --store "$dir/b.drs" --seed 2 $small >/dev/null || exit 1

"$bin" serve --store "$dir/a.drs" --listen 127.0.0.1:0 --refill 0.2 \
  >"$dir/out" 2>&1 &
pid=$!

# wait_for <pattern> <tenths of a second>
wait_for() {
  n=0
  while ! grep -q "$1" "$dir/out"; do
    if [ "$n" -ge "$2" ] || ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: no '$1' line"
      cat "$dir/out"
      exit 1
    fi
    sleep 0.1
    n=$((n + 1))
  done
}

wait_for '^listening on ' 300
# Publish b over a by rename, with a's mtime: a new inode, the same mtime.
touch -r "$dir/a.drs" "$dir/b.drs" && mv "$dir/b.drs" "$dir/a.drs" || exit 1
wait_for '^refill: engine epoch 1 ' 200
echo "ok"
