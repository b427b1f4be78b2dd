#!/bin/sh
# Byte identity across versions: the CI smoke store (generate --domains
# 4000 --providers 80 --scale 400) at 1 and 4 threads, the store merged
# from its 3 shards, the stdout of analyze --store and analyze --store
# --rejoin (without the "store:" line, which names the file) and the serve
# fingerprint line must hash to the sha256 digests recorded in
# golden_digests.txt. A change that means to alter these bytes updates
# that file in the same commit and says why.
#
# Usage: golden_digests_test.sh <ddosrepro binary> <scratch directory> [--print]
#   --print writes the current digests in golden_digests.txt's format to
#   stdout instead of comparing them.
set -u
bin=$1
dir=$2/golden_digests.$$
mode=${3:-}
golden=$(dirname "$0")/golden_digests.txt
mkdir -p "$dir" || exit 1
trap 'rm -rf "$dir"' EXIT
smoke="--domains 4000 --providers 80 --scale 400"

run() {
  "$@" >"$dir/out" 2>&1 || { echo "FAIL: $*"; cat "$dir/out"; exit 1; }
}

run "$bin" generate --threads 1 $smoke --store "$dir/store_t1.drs"
run "$bin" generate --threads 4 $smoke --store "$dir/store_t4.drs"
for i in 0 1 2; do
  run "$bin" generate --threads 4 $smoke --shard $i/3 --store "$dir/shard$i.drs"
done
run "$bin" merge "$dir/merged_t4.drs" "$dir/shard0.drs" "$dir/shard1.drs" \
  "$dir/shard2.drs"
run "$bin" analyze --store "$dir/store_t4.drs" --threads 2
grep -v '^store: ' "$dir/out" >"$dir/analyze.out"
run "$bin" analyze --store "$dir/store_t4.drs" --rejoin --threads 2
grep -v '^store: ' "$dir/out" >"$dir/analyze_rejoin.out"
run "$bin" serve --store "$dir/store_t4.drs" --threads 4 --serve-ops 100000 \
  --seed 7
grep '^fingerprint: ' "$dir/out" >"$dir/fingerprint.out"

(
  cd "$dir" || exit 1
  for f in store_t1.drs store_t4.drs merged_t4.drs analyze.out \
           analyze_rejoin.out fingerprint.out; do
    sha256sum "$f"
  done
) >"$dir/digests" || exit 1

if [ "$mode" = "--print" ]; then
  cat "$dir/digests"
  exit 0
fi
if ! diff "$golden" "$dir/digests"; then
  echo "FAIL: digests differ from $golden (< recorded, > this build)"
  echo "fingerprint line: $(cat "$dir/fingerprint.out")"
  exit 1
fi
echo "golden digests match ($(wc -l <"$golden") files)"
