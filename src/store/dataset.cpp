#include "store/dataset.h"

#include <cstdint>
#include <string>

#include "obs/obs.h"

namespace ddos::store {

void write_joined_events(Writer& writer, const core::EventFrame& events) {
  PieceEncoder pieces;
  for_each_event_column(events, [&]<typename Values>(const char* column,
                                                     Encoding encoding,
                                                     const Values& values) {
    write_column(writer, pieces, "events", column,
                 AppenderFor<typename Values::value_type>(encoding), values);
  });
}

void write_counts(Writer& writer, const RunCounts& counts) {
  for_each_count(counts, [&](std::string_view key, CountMerge,
                             std::uint64_t value) {
    writer.add_meta(key, std::to_string(value));
  });
}

RunCounts read_counts(const Reader& reader) {
  RunCounts counts;
  for_each_count(counts, [&](std::string_view key, CountMerge,
                             std::uint64_t& value) {
    value = reader.meta_u64(key);
  });
  return counts;
}

void check_count(const Reader& reader, std::string_view what,
                 std::uint64_t stored, std::uint64_t decoded) {
  if (stored != decoded) {
    throw StoreError(reader.path() + ": " + std::string(what) +
                     " count mismatch (" + std::to_string(decoded) +
                     " decoded, provenance says " + std::to_string(stored) +
                     ") — store and generating run disagree");
  }
}

std::vector<telescope::VictimAttacks> read_victims(const Reader& reader,
                                                   std::uint64_t events) {
  std::vector<telescope::VictimAttacks> rows;
  rows.reserve(reader.dataset_rows("victims"));
  ColumnArena arena;
  read_dataset<VictimColumns>(
      reader, "victims", arena,
      [&](const telescope::VictimAttacks& row) { rows.push_back(row); });
  const auto refuse = [&](const char* column, std::size_t r,
                          const std::string& why) {
    throw StoreError(reader.path() + ": column 'victims." + column +
                     "': row " + std::to_string(r) + " " + why);
  };
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r > 0 && rows[r].victim <= rows[r - 1].victim) {
      refuse("victim", r,
             "holds " + std::to_string(rows[r].victim) +
                 ", not above the row before it — victims must be strictly "
                 "ascending");
    }
    if (rows[r].attacks == 0) {
      refuse("attacks", r, "holds 0 — a stored victim has at least one attack");
    }
    if (__builtin_add_overflow(sum, rows[r].attacks, &sum)) {
      refuse("attacks", r, "overflows the sum of the counts");
    }
  }
  check_count(reader, "victims.attacks", events, sum);
  return rows;
}

double mb_per_s(std::uint64_t bytes,
                std::chrono::steady_clock::duration elapsed) {
  const double ns = std::chrono::duration<double, std::nano>(elapsed).count();
  return ns > 0.0 ? static_cast<double>(bytes) * 1e3 / ns : 0.0;
}

double record_store_read(std::uint64_t bytes,
                         std::chrono::steady_clock::duration elapsed) {
  const double mbps = mb_per_s(bytes, elapsed);
  if (obs::Observer* observer = obs::Observer::installed()) {
    observer->pipeline.store_bytes_read.set(static_cast<double>(bytes));
    observer->pipeline.store_read_MBps.set(mbps);
  }
  return mbps;
}

}  // namespace ddos::store
