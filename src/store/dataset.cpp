#include "store/dataset.h"

#include <cstdint>
#include <string>

#include "obs/obs.h"

namespace ddos::store {

OwnedEventFrame::OwnedEventFrame(
    std::span<const core::NssetAttackEvent> rows) {
  using Row = core::NssetAttackEvent;
  frame_.rows = rows.size();
  EventColumns::for_each_column([&]<typename Field, typename Span>(
                                    std::string_view, Encoding, Field field,
                                    Span core::EventFrame::*span) {
    using Value = ColumnValue<FieldOf<Row, Field>>;
    auto& column = std::get<OwnedColumn<Value>>(
        columns_.emplace_back(std::in_place_type<OwnedColumn<Value>>,
                              rows.size()));
    for (const Row& row : rows) {
      column.push_back(to_column(std::invoke(field, row)));
    }
    frame_.*span = column.span();
  });
}

core::EventFrame read_event_frame(const Reader& reader, ColumnArena& arena) {
  const std::vector<ColumnTypes::AnyOf<ColumnSpan>> values =
      decode_dataset<EventColumns>(reader, "events", arena);
  core::EventFrame frame;
  frame.rows = reader.dataset_rows("events");
  std::size_t i = 0;
  EventColumns::for_each_column([&]<typename Span>(
                                    std::string_view, Encoding, auto,
                                    Span core::EventFrame::*span) {
    frame.*span = std::get<Span>(values[i++]);
  });
  return frame;
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

void check_count(const std::string& path, std::string_view what,
                 std::uint64_t stored, std::uint64_t decoded) {
  if (stored != decoded) {
    throw StoreError(path + ": " + std::string(what) + " count mismatch (" +
                     std::to_string(decoded) + " decoded, provenance says " +
                     std::to_string(stored) +
                     ") — store and generating run disagree");
  }
}

void check_victims(const std::string& path,
                   std::span<const telescope::VictimAttacks> rows,
                   std::uint64_t events) {
  const auto refuse = [&](const char* column, std::size_t r,
                          const std::string& why) {
    throw StoreError(path + ": column 'victims." + column + "': row " +
                     std::to_string(r) + " " + why);
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
  check_count(path, "victims.attacks", events, sum);
}

std::vector<telescope::VictimAttacks> read_victims(const Reader& reader,
                                                   std::uint64_t events) {
  std::vector<telescope::VictimAttacks> rows;
  rows.reserve(reader.dataset_rows("victims"));
  ColumnArena arena;
  read_dataset<VictimColumns>(
      reader, "victims", arena,
      [&](const telescope::VictimAttacks& row) { rows.push_back(row); });
  check_victims(reader.path(), rows, events);
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
