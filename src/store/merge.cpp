#include "store/merge.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "core/join.h"
#include "obs/obs.h"
#include "store/dataset.h"
#include "store/epoch.h"
#include "store/reader.h"
#include "store/writer.h"
#include "util/strings.h"

namespace ddos::store {

namespace {

std::uint64_t meta_u64(const Reader& reader, std::string_view key) {
  std::uint64_t out = 0;
  if (!util::parse_u64(reader.meta_value(key), out)) {
    throw StoreError(reader.path() + ": meta key '" + std::string(key) +
                     "' is not an unsigned integer");
  }
  return out;
}

bool has_prefix(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// Keys whose values the merger recomputes (validated-equal or summed)
// rather than copies; everything else is generating provenance and must
// be identical across shards.
bool is_result_key(std::string_view key) {
  return has_prefix(key, "result.") || has_prefix(key, "stats.");
}

bool is_shard_key(std::string_view key) { return has_prefix(key, "shard."); }

// Leading sort-key columns of the day-partitioned datasets: consecutive
// shards must hand over in strictly ascending order or the partition the
// byte-identity proof rests on is broken.
bool is_time_major_key(const ColumnDesc& desc) {
  return ((desc.dataset == "daily" || desc.dataset == "window") &&
          desc.column == "key") ||
         (desc.dataset == "ns_seen" && desc.column == "day");
}

// Generic column path: decode every shard's block in parallel, validate
// type/encoding agreement, then replay the values in shard order through
// the matching epoch appender — whose chunk-wise appends produce payloads
// byte-identical to the one-shot encode of the concatenated vector that
// save_run would have written.
std::uint64_t merge_column(Writer& writer,
                           const std::vector<const Reader*>& shards,
                           const ColumnDesc& desc,
                           std::atomic<std::uint64_t>* columns_done) {
  const std::size_t n = shards.size();
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
  switch (desc.type) {
    case ColumnType::U64: {
      std::vector<std::vector<std::uint64_t>> decoded(n);
      std::vector<std::function<void()>> jobs;
      jobs.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        jobs.push_back([&decoded, &shards, &desc, i] {
          decoded[i] = shards[i]->read_u64(desc.dataset, desc.column);
        });
      }
      Reader::parallel_decode(jobs);
      if (is_time_major_key(desc)) {
        const std::uint64_t* prev_last = nullptr;
        for (std::size_t i = 0; i < n; ++i) {
          if (decoded[i].empty()) continue;
          if (prev_last != nullptr && decoded[i].front() <= *prev_last) {
            throw StoreError(shards[i]->path() + ": '" + desc.dataset + "." +
                             desc.column +
                             "' overlaps the preceding shard's range — "
                             "shard day ranges must be disjoint and "
                             "ascending by shard index");
          }
          prev_last = &decoded[i].back();
        }
      }
      U64Appender appender(desc.encoding);
      for (std::size_t i = 0; i < n; ++i) {
        for (const std::uint64_t v : decoded[i]) appender.append(v);
        if (columns_done) {
          columns_done[i].fetch_add(1, std::memory_order_relaxed);
        }
      }
      rows = appender.rows();
      appender.flush_to(writer, desc.dataset, desc.column);
      break;
    }
    case ColumnType::F64: {
      std::vector<std::vector<double>> decoded(n);
      std::vector<std::function<void()>> jobs;
      jobs.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        jobs.push_back([&decoded, &shards, &desc, i] {
          decoded[i] = shards[i]->read_f64(desc.dataset, desc.column);
        });
      }
      Reader::parallel_decode(jobs);
      F64Appender appender;
      for (std::size_t i = 0; i < n; ++i) {
        for (const double v : decoded[i]) appender.append(v);
        if (columns_done) {
          columns_done[i].fetch_add(1, std::memory_order_relaxed);
        }
      }
      rows = appender.rows();
      appender.flush_to(writer, desc.dataset, desc.column);
      break;
    }
    case ColumnType::U8: {
      std::vector<std::vector<std::uint8_t>> decoded(n);
      std::vector<std::function<void()>> jobs;
      jobs.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        jobs.push_back([&decoded, &shards, &desc, i] {
          decoded[i] = shards[i]->read_u8(desc.dataset, desc.column);
        });
      }
      Reader::parallel_decode(jobs);
      U8Appender appender;
      for (std::size_t i = 0; i < n; ++i) {
        for (const std::uint8_t v : decoded[i]) appender.append(v);
        if (columns_done) {
          columns_done[i].fetch_add(1, std::memory_order_relaxed);
        }
      }
      rows = appender.rows();
      appender.flush_to(writer, desc.dataset, desc.column);
      break;
    }
    case ColumnType::Str:
      // Only the events dataset carries strings, and events take the
      // row-merge path below — a Str column here means a layout the
      // merger does not understand.
      throw StoreError(shards[0]->path() + ": unexpected string column '" +
                       desc.dataset + "." + desc.column +
                       "' outside the events dataset");
  }
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
    if (!shards[i]->has_column("shard", "src_event")) {
      throw StoreError(shards[i]->path() +
                       ": missing shard.src_event column — not a shard "
                       "store written by generate --shard?");
    }
    rows[i] = read_joined_events(*shards[i]);
    src[i] = shards[i]->read_u64("shard", "src_event");
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
  write_joined_events(writer, merged);
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
    if (!reader->has_meta("shard.index") || !reader->has_meta("shard.count")) {
      throw StoreError(reader->path() +
                       ": not a shard store (no shard.index/shard.count "
                       "manifest; shard stores come from generate --shard "
                       "i/N)");
    }
    const std::uint64_t index = meta_u64(*reader, "shard.index");
    const std::uint64_t n = meta_u64(*reader, "shard.count");
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

  // Every block of every shard is checksum-verified before any decode, so
  // a corrupt shard fails loudly here, naming its own path.
  for (const Reader* shard : shards) shard->validate_all();

  // ---- provenance union: the shards must come from ONE generate config
  // (including run.threads — the merged file reproduces a single-process
  // run at that thread count).
  const Reader& first = *shards[0];
  for (const auto& [key, value] : first.meta()) {
    if (is_result_key(key) || is_shard_key(key)) continue;
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
  for (std::uint32_t s = 1; s < count; ++s) {
    if (shards[s]->columns().size() != first.columns().size()) {
      throw StoreError(shards[s]->path() + ": column count differs from " +
                       first.path() +
                       " — shards were written by different builds?");
    }
  }

  // ---- recomputed result/stat counts: whole-world counts must agree
  // across shards, per-shard dispositions sum.
  const auto equal_across = [&](std::string_view key) {
    const std::uint64_t v = meta_u64(first, key);
    for (std::uint32_t s = 1; s < count; ++s) {
      if (meta_u64(*shards[s], key) != v) {
        throw StoreError("merge provenance mismatch on '" + std::string(key) +
                         "': " + first.path() + " and " + shards[s]->path() +
                         " disagree — shards must come from one generate "
                         "configuration");
      }
    }
    return v;
  };
  const auto summed = [&](std::string_view key) {
    std::uint64_t v = 0;
    for (const Reader* shard : shards) v += meta_u64(*shard, key);
    return v;
  };

  const std::uint64_t events_total = equal_across("result.events");
  const std::uint64_t owned_total = summed("stats.total_events");
  if (owned_total != events_total) {
    throw StoreError(out_path + ": shard ownership does not cover the event "
                     "list (" +
                     std::to_string(owned_total) + " events owned across " +
                     std::to_string(count) + " shards, " +
                     std::to_string(events_total) +
                     " stitched) — were all shards generated with the same "
                     "i/N partition?");
  }

  std::vector<std::pair<std::string, std::string>> computed;
  computed.emplace_back("result.attacks",
                        std::to_string(equal_across("result.attacks")));
  computed.emplace_back("result.events", std::to_string(events_total));
  computed.emplace_back("stats.total_events", std::to_string(owned_total));
  for (const std::string_view key :
       {"result.feed_records", "result.swept_measurements",
        "stats.open_resolver_filtered", "stats.non_dns",
        "stats.not_seen_day_before", "stats.below_measurement_floor",
        "stats.no_baseline", "stats.dns_events"}) {
    computed.emplace_back(std::string(key), std::to_string(summed(key)));
  }

  // ---- meta replay in shard 0's footer order (save_run's insertion
  // order), manifest keys stripped, recomputed values substituted.
  // result.joined/stats.joined temporarily carry shard 0's values and are
  // overwritten in place after the events merge — add_meta keeps the
  // first insertion's footer position, which is what byte-identity needs.
  Writer writer(out_path);
  for (const auto& [key, value] : first.meta()) {
    if (is_shard_key(key)) continue;
    std::string_view out_value = value;
    for (const auto& [ckey, cvalue] : computed) {
      if (ckey == key) {
        out_value = cvalue;
        break;
      }
    }
    writer.add_meta(key, out_value);
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
  // (feed, daily, window, ns_seen, events), with the manifest dataset
  // dropped and the events dataset row-merged as one unit.
  const bool merge_concurrent = meta_u64(first, "join.merge_concurrent") != 0;
  bool events_merged = false;
  for (const ColumnDesc& desc : first.columns()) {
    if (desc.dataset == "shard") continue;  // manifest column, not data
    if (desc.dataset == "events") {
      if (events_merged) continue;
      events_merged = true;
      stats.events_out =
          merge_events(writer, shards, merge_concurrent, columns_done.get());
      continue;
    }
    stats.rows_merged +=
        merge_column(writer, shards, desc, columns_done.get());
  }

  writer.add_meta("result.joined", std::to_string(stats.events_out));
  writer.add_meta("stats.joined", std::to_string(stats.events_out));
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
    const double merge_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - merge_start)
            .count());
    if (merge_ns > 0.0) {
      observer->pipeline.merge_MBps.set(
          static_cast<double>(stats.bytes_written) * 1e3 / merge_ns);
    }
  }
  return stats;
}

}  // namespace ddos::store
