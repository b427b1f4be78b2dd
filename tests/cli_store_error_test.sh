#!/bin/sh
# A store that cannot be written or read fails the CLI with exit status 1
# and a "store error:" diagnostic naming the store:
#   - an unwritable --store path fails `generate`, `generate --shard` and
#     `merge`;
#   - a store with one block byte changed fails `analyze --store` (mapped,
#     and buffered with --rejoin), `serve --store` and `merge` of it as a
#     shard.
# Neither leaves a temp file behind, and the failed merge leaves no output.
#
# Usage: cli_store_error_test.sh <ddosrepro binary> <scratch directory>
set -u
bin=$1
dir=$2/cli_store_error.$$
mkdir -p "$dir" || exit 1
trap 'rm -rf "$dir"' EXIT
bad=$dir/missing/x.drs
small="--domains 2000 --providers 40 --scale 400 --threads 2"

# expect_store_error <path the message must name> <command...>
expect_store_error() {
  path=$1
  shift
  "$@" >"$dir/out" 2>&1
  status=$?
  if [ "$status" -ne 1 ] || ! grep -q '^store error:' "$dir/out" ||
     ! grep -qF "$path" "$dir/out"; then
    echo "FAIL (exit $status, wanted 1 naming $path): $*"
    cat "$dir/out"
    exit 1
  fi
}

# Copy store $1 to $2 with the byte at offset 20 inverted: the first block
# starts right after the 16-byte header, so the change lands in a
# CRC-covered payload, not in the footer.
copy_with_changed_byte() {
  cp "$1" "$2" || exit 1
  byte=$(od -An -tu1 -j20 -N1 "$2" | tr -d ' ')
  printf "\\$(printf '%03o' $((byte ^ 255)))" |
    dd of="$2" bs=1 seek=20 count=1 conv=notrunc 2>/dev/null || exit 1
}

expect_store_error "$bad" "$bin" generate --store "$bad" $small
expect_store_error "$bad" "$bin" generate --shard 0/2 --store "$bad" $small
"$bin" generate --shard 0/1 --store "$dir/shard.drs" $small >/dev/null || exit 1
expect_store_error "$bad" "$bin" merge "$bad" "$dir/shard.drs"

"$bin" generate --store "$dir/whole.drs" $small >/dev/null || exit 1
copy_with_changed_byte "$dir/whole.drs" "$dir/changed.drs"
expect_store_error "$dir/changed.drs" "$bin" analyze --store "$dir/changed.drs"
expect_store_error "$dir/changed.drs" \
  "$bin" analyze --store "$dir/changed.drs" --no-mmap --rejoin
expect_store_error "$dir/changed.drs" \
  "$bin" serve --store "$dir/changed.drs" --serve-ops 1000
copy_with_changed_byte "$dir/shard.drs" "$dir/changed-shard.drs"
expect_store_error "$dir/changed-shard.drs" \
  "$bin" merge "$dir/merged.drs" "$dir/changed-shard.drs"
if [ -e "$dir/merged.drs" ]; then
  echo "FAIL: merge of a changed shard left its output behind"
  exit 1
fi

leftover=$(find "$dir" -name '*.tmp.*')
if [ -n "$leftover" ]; then
  echo "FAIL: temp files left behind: $leftover"
  exit 1
fi
echo "ok"
