#include "store/merge.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "core/columnar.h"
#include "core/join.h"
#include "obs/obs.h"
#include "store/dataset.h"
#include "store/epoch.h"
#include "store/reader.h"
#include "store/scan.h"
#include "store/writer.h"

namespace ddos::store {

// ---- the shard manifest: every "shard." footer key, the "shard" dataset.
constexpr std::string_view kShard = "shard";
constexpr std::string_view kIndexKey = "shard.index";
constexpr std::string_view kCountKey = "shard.count";
constexpr std::string_view kSrcEvent = "src_event";

void write_shard_manifest(Writer& writer, std::uint32_t index,
                          std::uint32_t count,
                          std::span<const std::uint64_t> src_event) {
  writer.add_meta(kIndexKey, std::to_string(index));
  writer.add_meta(kCountKey, std::to_string(count));
  write_column(writer, kShard, kSrcEvent, U64Appender(Encoding::DeltaVarint),
               src_event);
}

namespace {

// The shard's {index, count}; merge_events reads its src_event column.
std::pair<std::uint64_t, std::uint64_t> read_shard_manifest(
    const Reader& reader) {
  if (!reader.has_meta(kIndexKey) || !reader.has_meta(kCountKey)) {
    throw StoreError(reader.path() + ": not a shard store (no shard.index/"
                     "shard.count manifest; shard stores come from "
                     "generate --shard i/N)");
  }
  return {reader.meta_u64(kIndexKey), reader.meta_u64(kCountKey)};
}

bool is_shard_key(std::string_view key) {
  return key.starts_with(kShard) && key.substr(kShard.size()).starts_with('.');
}

// Count keys are recombined by their merge rule rather than copied;
// every other non-manifest key is generating provenance and must be
// identical across shards.
bool is_count_key(std::string_view key) {
  const RunCounts counts;
  bool found = false;
  for_each_count(counts, [&](std::string_view k, CountMerge, std::uint64_t) {
    found |= k == key;
  });
  return found;
}

// Leading sort-key columns (each list's first column) of the datasets
// shards partition — the day-partitioned daily, window and ns_seen, and
// victims, cut by row count: consecutive shards must hand over in
// strictly ascending order or the partition the byte-identity proof rests
// on is broken.
bool is_sort_key(const ColumnDesc& desc) {
  if (desc.dataset == "daily" || desc.dataset == "window") {
    return desc.column == first_column<AggregateColumns>();
  }
  if (desc.dataset == "ns_seen") {
    return desc.column == first_column<NsSeenColumns>();
  }
  return desc.dataset == "victims" &&
         desc.column == first_column<VictimColumns>();
}

// Generic column path: scan every shard's block in parallel, each into
// its own short-lived arena (one column per shard resident at a time),
// then encode the shards' values in pieces as one column, each shard's
// first piece carrying the last value of the shard before it that has
// rows — so the payload is byte-identical to the one-shot encode of the
// concatenated column that save_run would have written. V is the
// column's stored value type.
template <typename V>
std::uint64_t merge_values(Writer& writer, PieceEncoder& pieces,
                           const std::vector<const Reader*>& shards,
                           const ColumnDesc& desc,
                           std::atomic<std::uint64_t>* columns_done) {
  const std::size_t n = shards.size();
  std::vector<ColumnArena> arenas(n);
  std::vector<ColumnSpan<V>> values(n);
  std::vector<std::function<void()>> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back([&, i] {
      values[i] = scan<V>(*shards[i],
                          shards[i]->column(desc.dataset, desc.column),
                          arenas[i]);
    });
  }
  Reader::parallel_decode(jobs);
  std::uint64_t rows = 0;
  for (const ColumnSpan<V>& shard_values : values) rows += shard_values.size();
  if (is_sort_key(desc)) {
    std::size_t prev = n;  // last non-empty shard so far
    for (std::size_t i = 0; i < n; ++i) {
      if (values[i].size() == 0) continue;
      if (prev != n &&
          values[i][0] <= values[prev][values[prev].size() - 1]) {
        throw StoreError(shards[i]->path() + ": '" + desc.dataset + "." +
                         desc.column +
                         "' overlaps the preceding shard's range — "
                         "shard ranges must be disjoint and ascending by "
                         "shard index");
      }
      prev = i;
    }
  }
  writer.add_encoded(desc.dataset, desc.column, desc.type, desc.encoding, rows,
                     pieces.encode(AppenderFor<V>(desc.encoding), values));
  if (columns_done) {
    for (std::size_t i = 0; i < n; ++i) {
      columns_done[i].fetch_add(1, std::memory_order_relaxed);
    }
  }
  return rows;
}

std::uint64_t merge_column(Writer& writer, PieceEncoder& pieces,
                           const std::vector<const Reader*>& shards,
                           const ColumnDesc& desc,
                           std::atomic<std::uint64_t>* columns_done) {
  for (const Reader* shard : shards) {
    const ColumnDesc& d = shard->column(desc.dataset, desc.column);
    if (d.type != desc.type || d.encoding != desc.encoding) {
      throw StoreError(shard->path() + ": column '" + desc.dataset + "." +
                       desc.column + "' type/encoding differs from " +
                       shards[0]->path() +
                       " — shards were written by different builds?");
    }
  }
  std::uint64_t rows = 0;
  ColumnTypes::visit(desc.type, [&]<typename V>(std::type_identity<V>) {
    rows = merge_values<V>(writer, pieces, shards, desc, columns_done);
  });
  return rows;
}

// Events path: rows must interleave across shards, not concatenate. Each
// shard stored its pre-merge rows in canonical stitch order plus a
// src_event column naming each row's telescope event; a k-way merge
// ascending by src_event reproduces exactly the single-process join's
// pre-merge vector (ownership partitions events, so indices never tie),
// after which the concurrent-event merge and the row writer are literally
// save_run's own code.
std::uint64_t merge_events(Writer& writer,
                           const std::vector<const Reader*>& shards,
                           bool merge_concurrent,
                           std::atomic<std::uint64_t>* columns_done) {
  const std::size_t n = shards.size();
  std::vector<std::vector<core::NssetAttackEvent>> rows(n);
  std::vector<std::vector<std::uint64_t>> src(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Reader& shard = *shards[i];
    ColumnArena arena;
    rows[i] = core::events_from_frame(read_event_frame(shard, arena));
    const auto s =
        scan<std::uint64_t>(shard, shard.column(kShard, kSrcEvent), arena);
    src[i].assign(s.begin(), s.end());
    if (rows[i].size() != src[i].size()) {
      throw StoreError(shards[i]->path() + ": shard.src_event has " +
                       std::to_string(src[i].size()) +
                       " rows but the events dataset has " +
                       std::to_string(rows[i].size()));
    }
    if (columns_done) columns_done[i].fetch_add(1, std::memory_order_relaxed);
  }

  std::size_t total = 0;
  for (const auto& r : rows) total += r.size();
  std::vector<core::NssetAttackEvent> merged;
  merged.reserve(total);
  std::vector<std::size_t> pos(n, 0);
  while (merged.size() < total) {
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (pos[i] >= src[i].size()) continue;
      if (best == n || src[i][pos[i]] < src[best][pos[best]]) {
        best = i;
      } else if (src[i][pos[i]] == src[best][pos[best]]) {
        throw StoreError(shards[i]->path() + ": telescope event " +
                         std::to_string(src[i][pos[i]]) +
                         " was also joined by " + shards[best]->path() +
                         " — shard ownership must partition the events");
      }
    }
    merged.push_back(std::move(rows[best][pos[best]]));
    ++pos[best];
  }

  if (merge_concurrent) {
    merged = core::merge_concurrent_events(std::move(merged));
  }
  write_joined_events(writer, core::OwnedEventFrame(merged).frame());
  return merged.size();
}

}  // namespace

MergeStats merge_stores(const std::string& out_path,
                        const std::vector<std::string>& shard_paths) {
  if (shard_paths.empty()) {
    throw StoreError(out_path + ": merge needs at least one shard store");
  }
  obs::Observer* observer = obs::Observer::installed();
  obs::Tracer* tracer = observer ? &observer->tracer() : nullptr;
  obs::ScopedSpan span(tracer, "store.merge");
  const auto merge_start = std::chrono::steady_clock::now();

  // ---- open every shard and slot it by its manifest index.
  std::vector<std::unique_ptr<Reader>> readers;
  readers.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) {
    readers.push_back(std::make_unique<Reader>(path, ReadMode::Mapped));
  }
  const std::uint32_t count = static_cast<std::uint32_t>(shard_paths.size());
  std::vector<const Reader*> shards(count, nullptr);
  for (const auto& reader : readers) {
    const auto [index, n] = read_shard_manifest(*reader);
    if (n != count) {
      throw StoreError(reader->path() + ": shard count mismatch — store is "
                       "shard " +
                       std::to_string(index) + " of " + std::to_string(n) +
                       ", but " + std::to_string(count) +
                       " shard stores were given to merge");
    }
    if (index >= count) {
      throw StoreError(reader->path() + ": shard index " +
                       std::to_string(index) + " out of range for " +
                       std::to_string(count) + " shards");
    }
    if (shards[index] != nullptr) {
      throw StoreError(reader->path() + ": duplicate shard index " +
                       std::to_string(index) + " (also claimed by " +
                       shards[index]->path() + ")");
    }
    shards[index] = reader.get();
  }
  // count slots, count readers, no duplicates — every slot is filled.

  // Every block of every shard is CRC- and structure-checked before any
  // decode, so a bad shard fails here, naming its own path.
  for (const Reader* shard : shards) check_all(*shard);

  // ---- provenance union: the shards must come from ONE generate config
  // (including run.threads — the merged file reproduces a single-process
  // run at that thread count).
  const Reader& first = *shards[0];
  for (const auto& [key, value] : first.meta()) {
    if (is_count_key(key) || is_shard_key(key)) continue;
    for (std::uint32_t s = 1; s < count; ++s) {
      if (!shards[s]->has_meta(key) || shards[s]->meta_value(key) != value) {
        throw StoreError("merge provenance mismatch on '" + key + "': " +
                         first.path() + " says '" + value + "', " +
                         shards[s]->path() + " says '" +
                         shards[s]->meta_or(key, "<missing>") +
                         "' — shards must come from one generate "
                         "configuration");
      }
    }
  }
  // A flag, read as stored_provenance reads it, so a merged store loads.
  const std::uint64_t merge_concurrent = first.meta_u64(kMergeConcurrentKey);
  if (merge_concurrent > 1) {
    throw StoreError(first.path() + ": meta key '" +
                     std::string(kMergeConcurrentKey) + "' holds '" +
                     first.meta_value(kMergeConcurrentKey) + "', not 0 or 1");
  }
  for (std::uint32_t s = 1; s < count; ++s) {
    if (shards[s]->columns().size() != first.columns().size()) {
      throw StoreError(shards[s]->path() + ": column count differs from " +
                       first.path() +
                       " — shards were written by different builds?");
    }
  }

  // ---- the result counts, combined by each key's merge rule: whole-world
  // counts must agree across shards, per-shard tallies sum, and the
  // joined counts are taken again after the events merge.
  RunCounts counts;
  for_each_count(counts, [&](std::string_view key, CountMerge rule,
                             std::uint64_t& value) {
    value = first.meta_u64(key);
    for (std::uint32_t s = 1; s < count; ++s) {
      const std::uint64_t v = shards[s]->meta_u64(key);
      if (rule == CountMerge::Sum) {
        value += v;
      } else if (rule == CountMerge::Equal && v != value) {
        throw StoreError("merge provenance mismatch on '" + std::string(key) +
                         "': " + first.path() + " and " + shards[s]->path() +
                         " disagree — shards must come from one generate "
                         "configuration");
      }
    }
  });
  if (counts.stats.total_events != counts.events) {
    throw StoreError(out_path + ": shard ownership does not cover the event "
                     "list (" +
                     std::to_string(counts.stats.total_events) +
                     " events owned across " + std::to_string(count) +
                     " shards, " + std::to_string(counts.events) +
                     " stitched) — were all shards generated with the same "
                     "i/N partition?");
  }

  // ---- meta replay in shard 0's footer order (save_run's insertion
  // order), manifest keys stripped. The counts carry shard 0's values
  // until write_counts overwrites them in place after the events merge —
  // add_meta keeps the first insertion's footer position, which is what
  // byte-identity needs.
  Writer writer(out_path);
  for (const auto& [key, value] : first.meta()) {
    if (!is_shard_key(key)) writer.add_meta(key, value);
  }

  // Per-shard progress sources for the watchdog/telemetry: columns of
  // each shard consumed so far.
  obs::ProgressRegistry* progress =
      observer ? &observer->progress_sources() : nullptr;
  const auto columns_done =
      std::make_unique<std::atomic<std::uint64_t>[]>(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    columns_done[s].store(0, std::memory_order_relaxed);
  }
  std::vector<std::unique_ptr<obs::ScopedProgressSource>> shard_sources;
  if (progress) {
    shard_sources.reserve(count);
    for (std::uint32_t s = 0; s < count; ++s) {
      shard_sources.push_back(std::make_unique<obs::ScopedProgressSource>(
          progress, "merge.shard" + std::to_string(s),
          [&columns_done, s] {
            return columns_done[s].load(std::memory_order_relaxed);
          }));
    }
  }

  MergeStats stats;
  stats.shards = count;
  for (const Reader* shard : shards) stats.bytes_read += shard->file_size();

  // ---- column merge in shard 0's block order == save_run's block order
  // (feed, daily, window, ns_seen, victims, events), with the manifest
  // dataset dropped and the events dataset row-merged as one unit.
  // One piece encoder per dataset: its buffers serve that dataset's
  // columns and go before the next dataset's.
  bool events_merged = false;
  PieceEncoder pieces;
  std::string_view dataset;
  for (const ColumnDesc& desc : first.columns()) {
    if (desc.dataset == kShard) continue;  // manifest column, not data
    if (desc.dataset != dataset) {
      dataset = desc.dataset;
      pieces = PieceEncoder();
    }
    if (desc.dataset == "events") {
      if (events_merged) continue;
      events_merged = true;
      stats.events_out =
          merge_events(writer, shards, merge_concurrent == 1,
                       columns_done.get());
      continue;
    }
    stats.rows_merged +=
        merge_column(writer, pieces, shards, desc, columns_done.get());
  }

  for_each_count(counts, [&](std::string_view, CountMerge rule,
                             std::uint64_t& value) {
    if (rule == CountMerge::Recount) value = stats.events_out;
  });
  write_counts(writer, counts);
  writer.finish();
  stats.bytes_written = writer.bytes_written();

  span.set_items(stats.rows_merged + stats.events_out);
  if (observer) {
    observer->pipeline.merge_shards.set(static_cast<double>(count));
    observer->pipeline.merge_rows.inc(stats.rows_merged + stats.events_out);
    observer->pipeline.merge_bytes_read.set(
        static_cast<double>(stats.bytes_read));
    observer->pipeline.merge_bytes_written.set(
        static_cast<double>(stats.bytes_written));
    observer->pipeline.merge_MBps.set(mb_per_s(
        stats.bytes_written, std::chrono::steady_clock::now() - merge_start));
  }
  return stats;
}

}  // namespace ddos::store
