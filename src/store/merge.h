// Deterministic shard-store compaction — the "compact" stage of the
// plan/execute/compact pipeline (scenario/plan.h). merge_stores k-way
// merges the DRS shard files written by `generate --shard i/N` into one
// store byte-identical to a single-process `generate --store` of the
// same config, for any shard count and any thread count:
//
//   * meta replays shard 0's footer order with the result/stat counts
//     recomputed — whole-world counts (attacks, telescope events) are
//     validated equal across shards, per-shard dispositions are summed,
//     and the joined counts are re-counted after the concurrent merge;
//   * feed and victims (cut by index) and the time-major daily, window
//     and ns_seen (by the day partition) concatenate in shard-index order
//     — which IS the whole run's order — re-encoded through the epoch
//     appenders, whose chunk-wise appends are byte-identical to
//     save_run's one-shot encodes (every block re-CRC'd as written);
//   * the events dataset k-way merges by each row's source telescope
//     event index (the canonical stitch order the single-process join
//     emits) and then re-applies the concurrent-event merge.
//
// Every defect — corrupt block, non-shard input, wrong or duplicate
// shard index, provenance mismatch, overlapping day ranges — throws
// StoreError naming the offending shard file.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ddos::store {

class Writer;

/// Write the shard manifest: index, count and each pre-merge joined row's
/// telescope event index, by which merge_stores interleaves, then drops it.
void write_shard_manifest(Writer& writer, std::uint32_t index,
                          std::uint32_t count,
                          std::span<const std::uint64_t> src_event);

struct MergeStats {
  std::uint32_t shards = 0;
  std::uint64_t rows_merged = 0;    // column values appended (non-events)
  std::uint64_t events_out = 0;     // joined events after the concurrent merge
  std::uint64_t bytes_read = 0;     // summed shard file sizes
  std::uint64_t bytes_written = 0;  // merged file size
};

/// Merge `shard_paths` (any order — each store carries its own
/// shard.index manifest) into `out_path`. The set must be exactly the N
/// shards of one `generate --shard i/N` partition, all from the same
/// config and --threads. Throws StoreError on any defect.
MergeStats merge_stores(const std::string& out_path,
                        const std::vector<std::string>& shard_paths);

}  // namespace ddos::store
