#include "store/dataset.h"

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <type_traits>

#include "obs/obs.h"
#include "store/epoch.h"
#include "store/scan.h"

namespace ddos::store {

namespace {

// Shared layout of the "daily" and "window" aggregate datasets.
void write_aggregates(
    Writer& writer, const char* dataset,
    const std::vector<std::pair<std::uint64_t, openintel::Aggregate>>& rows) {
  using Row = std::pair<std::uint64_t, openintel::Aggregate>;
  const auto u64 = [&](const char* column, Encoding encoding, auto get) {
    write_column(writer, dataset, column, U64Appender(encoding), rows, get);
  };
  const auto f64 = [&](const char* column, auto get) {
    write_column(writer, dataset, column, F64Appender(), rows, get);
  };
  u64("key", Encoding::DeltaVarint, [](const Row& r) { return r.first; });
  u64("measured", Encoding::Varint,
      [](const Row& r) { return r.second.measured; });
  u64("ok", Encoding::Varint, [](const Row& r) { return r.second.ok; });
  u64("timeout", Encoding::Varint,
      [](const Row& r) { return r.second.timeout; });
  u64("servfail", Encoding::Varint,
      [](const Row& r) { return r.second.servfail; });
  u64("rtt_n", Encoding::Varint,
      [](const Row& r) { return r.second.rtt.raw().n; });
  f64("rtt_sum", [](const Row& r) { return r.second.rtt.raw().sum; });
  f64("rtt_m", [](const Row& r) { return r.second.rtt.raw().m; });
  f64("rtt_m2", [](const Row& r) { return r.second.rtt.raw().m2; });
  f64("rtt_min", [](const Row& r) { return r.second.rtt.raw().min; });
  f64("rtt_max", [](const Row& r) { return r.second.rtt.raw().max; });
}

// Decodes one aggregate dataset ("daily" or "window") and hands each row
// to restore(key, aggregate), in stored order.
template <typename Restore>
void read_aggregates(const Reader& reader, const char* dataset,
                     Restore&& restore) {
  const std::uint64_t rows = reader.dataset_rows(dataset);
  ColumnArena arena;
  const auto u64 = [&](const char* column) {
    return scan_u64(reader, reader.column(dataset, column), arena);
  };
  const auto f64 = [&](const char* column) {
    return scan_f64(reader, reader.column(dataset, column), arena);
  };
  std::span<const std::uint64_t> key, measured, ok, timeout, servfail, rtt_n;
  std::span<const double> rtt_sum, rtt_m, rtt_m2, rtt_min, rtt_max;
  Reader::parallel_decode({
      [&] { key = u64("key"); },
      [&] { measured = u64("measured"); },
      [&] { ok = u64("ok"); },
      [&] { timeout = u64("timeout"); },
      [&] { servfail = u64("servfail"); },
      [&] { rtt_n = u64("rtt_n"); },
      [&] { rtt_sum = f64("rtt_sum"); },
      [&] { rtt_m = f64("rtt_m"); },
      [&] { rtt_m2 = f64("rtt_m2"); },
      [&] { rtt_min = f64("rtt_min"); },
      [&] { rtt_max = f64("rtt_max"); },
  });

  for (std::uint64_t i = 0; i < rows; ++i) {
    openintel::Aggregate agg;
    agg.measured = static_cast<std::uint32_t>(measured[i]);
    agg.ok = static_cast<std::uint32_t>(ok[i]);
    agg.timeout = static_cast<std::uint32_t>(timeout[i]);
    agg.servfail = static_cast<std::uint32_t>(servfail[i]);
    util::RunningStats::Raw raw;
    raw.n = rtt_n[i];
    raw.sum = rtt_sum[i];
    raw.m = rtt_m[i];
    raw.m2 = rtt_m2[i];
    raw.min = rtt_min[i];
    raw.max = rtt_max[i];
    agg.rtt = util::RunningStats::from_raw(raw);
    restore(key[i], agg);
  }
}

}  // namespace

void write_feed_records(Writer& writer,
                        const std::vector<telescope::RSDoSRecord>& records) {
  using R = telescope::RSDoSRecord;
  const auto u64 = [&](const char* column, Encoding encoding, auto get) {
    write_column(writer, "feed", column, U64Appender(encoding), records,
                 get);
  };
  u64("window", Encoding::DeltaVarint,
      [](const R& r) { return static_cast<std::uint64_t>(r.window); });
  u64("victim", Encoding::Varint, [](const R& r) { return r.victim.value(); });
  u64("slash16", Encoding::Varint,
      [](const R& r) { return r.distinct_slash16; });
  write_column(
      writer, "feed", "protocol", U8Appender(), records,
      [](const R& r) { return static_cast<std::uint8_t>(r.protocol); });
  u64("first_port", Encoding::Varint, [](const R& r) { return r.first_port; });
  u64("unique_ports", Encoding::Varint,
      [](const R& r) { return r.unique_ports; });
  write_column(writer, "feed", "max_ppm", F64Appender(), records,
               [](const R& r) { return r.max_ppm; });
  u64("packets", Encoding::Varint, [](const R& r) { return r.packets; });
}

std::vector<telescope::RSDoSRecord> read_feed_records(const Reader& reader) {
  const std::uint64_t rows = reader.dataset_rows("feed");
  ColumnArena arena;
  const auto u64 = [&](const char* column) {
    return scan_u64(reader, reader.column("feed", column), arena);
  };
  std::span<const std::uint64_t> window, victim, slash16, first_port,
      unique_ports, packets;
  std::span<const std::uint8_t> protocol;
  std::span<const double> max_ppm;
  Reader::parallel_decode({
      [&] { window = u64("window"); },
      [&] { victim = u64("victim"); },
      [&] { slash16 = u64("slash16"); },
      [&] { protocol = scan_u8(reader, reader.column("feed", "protocol")); },
      [&] { first_port = u64("first_port"); },
      [&] { unique_ports = u64("unique_ports"); },
      [&] {
        max_ppm = scan_f64(reader, reader.column("feed", "max_ppm"), arena);
      },
      [&] { packets = u64("packets"); },
  });

  std::vector<telescope::RSDoSRecord> records;
  records.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    telescope::RSDoSRecord r;
    r.window = static_cast<netsim::WindowIndex>(window[i]);
    r.victim = netsim::IPv4Addr(static_cast<std::uint32_t>(victim[i]));
    r.distinct_slash16 = static_cast<std::uint32_t>(slash16[i]);
    r.protocol = static_cast<attack::Protocol>(protocol[i]);
    r.first_port = static_cast<std::uint16_t>(first_port[i]);
    r.unique_ports = static_cast<std::uint16_t>(unique_ports[i]);
    r.max_ppm = max_ppm[i];
    r.packets = packets[i];
    records.push_back(r);
  }
  return records;
}

void write_measurements(Writer& writer,
                        const openintel::MeasurementStore& store) {
  write_aggregates(writer, "daily", store.sorted_daily());
  write_aggregates(writer, "window", store.sorted_window());

  using Seen = std::pair<netsim::DayIndex, netsim::IPv4Addr>;
  const std::vector<Seen> seen = store.sorted_ns_seen();
  write_column(
      writer, "ns_seen", "day", U64Appender(Encoding::DeltaVarint), seen,
      [](const Seen& s) { return static_cast<std::uint64_t>(s.first); });
  write_column(writer, "ns_seen", "ip", U64Appender(Encoding::DeltaVarint),
               seen, [](const Seen& s) { return s.second.value(); });
}

void read_measurements(const Reader& reader,
                       openintel::MeasurementStore& store) {
  // Size the restore targets from the column row counts up front: loads
  // then probe into final-size tables instead of rehashing O(log n) times.
  store.reserve_daily(reader.dataset_rows("daily"));
  read_aggregates(reader, "daily",
                  [&](std::uint64_t key, const openintel::Aggregate& agg) {
                    store.restore_daily(key, agg);
                  });
  store.reserve_window(reader.dataset_rows("window"));
  read_aggregates(reader, "window",
                  [&](std::uint64_t key, const openintel::Aggregate& agg) {
                    store.restore_window(key, agg);
                  });

  const std::uint64_t rows = reader.dataset_rows("ns_seen");
  ColumnArena arena;
  std::span<const std::uint64_t> day, ip;
  Reader::parallel_decode({
      [&] { day = scan_u64(reader, reader.column("ns_seen", "day"), arena); },
      [&] { ip = scan_u64(reader, reader.column("ns_seen", "ip"), arena); },
  });
  // The snapshot is sorted by (day, ip), so each day's sightings form one
  // run; reserve the per-day set from the run length before inserting.
  for (std::uint64_t i = 0; i < rows;) {
    std::uint64_t end = i + 1;
    while (end < rows && day[end] == day[i]) ++end;
    const auto d = static_cast<netsim::DayIndex>(day[i]);
    store.reserve_ns_seen(d, end - i);
    for (; i < end; ++i) {
      store.restore_ns_seen(d,
                            netsim::IPv4Addr(static_cast<std::uint32_t>(ip[i])));
    }
  }
}

void write_joined_events(Writer& writer, const core::EventFrame& events) {
  for_each_event_column(events, [&](const char* column, Encoding encoding,
                                    const auto& values) {
    using Values = std::decay_t<decltype(values)>;
    if constexpr (std::is_same_v<Values, std::span<const std::uint64_t>>) {
      writer.add_u64("events", column, values, encoding);
    } else if constexpr (std::is_same_v<Values, std::span<const double>>) {
      writer.add_f64("events", column, values);
    } else if constexpr (std::is_same_v<Values,
                                        std::span<const std::uint8_t>>) {
      writer.add_u8("events", column, values);
    } else {
      StringAppender org;
      org.reserve(values.size());
      for (std::size_t i = 0; i < values.size(); ++i) org.append(values[i]);
      org.flush_to(writer, "events", column);
    }
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
