// Pipeline dataset <-> DRS column mapping. Every dataset's schema is one
// column list in this header, mirroring the paper's data layer (DESIGN.md
// §"Dataset store"):
//
//   "feed"    — FeedColumns: the simulated RSDoS feed windows
//               (telescope::RSDoSRecord), one row per curated 5-minute
//               record;
//   "daily" / "window"
//             — AggregateColumns: the OpenINTEL sweep aggregates
//               (openintel::MeasurementStore state) per (NSSet, day) and
//               per (NSSet, window), with their full Welford RTT state;
//   "ns_seen" — NsSeenColumns: the seen-NS sets driving the previous-day
//               join, one (day, NS address) row per sighting;
//   "victims" — VictimColumns: stitched telescope events per victim IP
//               (telescope::count_attacks), ascending by victim — what
//               the serving engine's attack leaderboard reads, so a load
//               never re-stitches the feed;
//   "events"  — EventColumns: the joined NSSet-attack events
//               (core::NssetAttackEvent), every field, lossless (unlike
//               the events CSV); each column also names the
//               core::EventFrame span the analysis kernels read.
//
// A row list names each column, its encoding and the row field it
// stores (a member pointer, or a `nested` accessor one struct down), in
// block order; the field's type picks the stored value type (to_column),
// and store/epoch.h's column-type rule gives that type its appender and
// its scan. Generic bodies walk the row lists, reading a field through
// std::invoke: write_dataset (one whole column at a time), DatasetAppender
// (the streaming executor's feed, one ingest region at a time) and
// merge_stores (the shards' columns in turn), all encoding through the
// epoch.h PieceEncoder, and read_dataset (load_run, serve::load_engine,
// read_victims), whose per-column read, decode_field, the merge shares: a
// value its field cannot hold is refused. The events frame loaders,
// read_event_frame (store/scan.h) and OwnedEventFrame, fill EventColumns'
// spans.
//
// The footer meta ends with the result counts: one list, for_each_count
// below, that writers, readers, count checks and merge_stores all walk.
//
// Id/timestamp columns are delta+varint encoded (sorted keys compress to
// ~1 byte per row); counts are varints; RTT/impact columns are raw f64
// bit patterns so round trips are bit-exact. Readers decode through
// store/scan.h and throw store::StoreError on any checksum or schema
// defect.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/columnar.h"
#include "core/join.h"
#include "core/resilience.h"
#include "netsim/ipv4.h"
#include "netsim/simtime.h"
#include "openintel/storage.h"
#include "store/epoch.h"
#include "store/reader.h"
#include "store/scan.h"
#include "store/writer.h"
#include "telescope/rsdos.h"

namespace ddos::store {

/// The "feed" dataset: one row per RSDoS feed record.
struct FeedColumns {
  using Row = telescope::RSDoSRecord;

  /// Calls visit(column, encoding, &Row::field) for each column in block
  /// order.
  template <typename Visit>
  static void for_each_column(Visit&& visit) {
    visit("window", Encoding::DeltaVarint, &Row::window);
    visit("victim", Encoding::Varint, &Row::victim);
    visit("slash16", Encoding::Varint, &Row::distinct_slash16);
    visit("protocol", Encoding::Fixed, &Row::protocol);
    visit("first_port", Encoding::Varint, &Row::first_port);
    visit("unique_ports", Encoding::Varint, &Row::unique_ports);
    visit("max_ppm", Encoding::Fixed, &Row::max_ppm);
    visit("packets", Encoding::Varint, &Row::packets);
  }
};

/// One row of the aggregate layout: a MeasurementStore key and its
/// aggregate, the RTT Welford state (util::RunningStats::Raw) unpacked
/// so that each field is a column.
struct AggregateRow {
  std::uint64_t key = 0;
  std::uint32_t measured = 0;
  std::uint32_t ok = 0;
  std::uint32_t timeout = 0;
  std::uint32_t servfail = 0;
  std::uint64_t rtt_n = 0;
  double rtt_sum = 0.0;
  double rtt_m = 0.0;
  double rtt_m2 = 0.0;
  double rtt_min = 0.0;
  double rtt_max = 0.0;

  AggregateRow() = default;
  /// A (key, aggregate) entry as MeasurementStore hands them out.
  AggregateRow(const std::pair<std::uint64_t, openintel::Aggregate>& entry)
      : key(entry.first),
        measured(entry.second.measured),
        ok(entry.second.ok),
        timeout(entry.second.timeout),
        servfail(entry.second.servfail) {
    const util::RunningStats::Raw raw = entry.second.rtt.raw();
    rtt_n = raw.n;
    rtt_sum = raw.sum;
    rtt_m = raw.m;
    rtt_m2 = raw.m2;
    rtt_min = raw.min;
    rtt_max = raw.max;
  }

  openintel::Aggregate aggregate() const {
    openintel::Aggregate agg;
    agg.measured = measured;
    agg.ok = ok;
    agg.timeout = timeout;
    agg.servfail = servfail;
    agg.rtt = util::RunningStats::from_raw(
        {rtt_n, rtt_sum, rtt_m, rtt_m2, rtt_min, rtt_max});
    return agg;
  }
};

/// The aggregate layout of the "daily" and "window" datasets; rows are
/// ascending by their time-major key.
struct AggregateColumns {
  using Row = AggregateRow;

  template <typename Visit>
  static void for_each_column(Visit&& visit) {
    visit("key", Encoding::DeltaVarint, &Row::key);
    visit("measured", Encoding::Varint, &Row::measured);
    visit("ok", Encoding::Varint, &Row::ok);
    visit("timeout", Encoding::Varint, &Row::timeout);
    visit("servfail", Encoding::Varint, &Row::servfail);
    visit("rtt_n", Encoding::Varint, &Row::rtt_n);
    visit("rtt_sum", Encoding::Fixed, &Row::rtt_sum);
    visit("rtt_m", Encoding::Fixed, &Row::rtt_m);
    visit("rtt_m2", Encoding::Fixed, &Row::rtt_m2);
    visit("rtt_min", Encoding::Fixed, &Row::rtt_min);
    visit("rtt_max", Encoding::Fixed, &Row::rtt_max);
  }
};

/// One NS address seen on one day, as MeasurementStore hands them out.
using NsSeenRow = std::pair<netsim::DayIndex, netsim::IPv4Addr>;

/// The "ns_seen" dataset; rows are ascending by (day, ip).
struct NsSeenColumns {
  using Row = NsSeenRow;

  template <typename Visit>
  static void for_each_column(Visit&& visit) {
    visit("day", Encoding::DeltaVarint, &Row::first);
    visit("ip", Encoding::DeltaVarint, &Row::second);
  }
};

/// The "victims" dataset; rows are strictly ascending by victim, and
/// every count is at least 1.
struct VictimColumns {
  using Row = telescope::VictimAttacks;

  template <typename Visit>
  static void for_each_column(Visit&& visit) {
    visit("victim", Encoding::DeltaVarint, &Row::victim);
    visit("attacks", Encoding::Varint, &Row::attacks);
  }
};

/// A row field one struct down: std::invoke(nested<&A::b, &B::c>, a) is
/// a.b.c, const when `a` is.
template <auto Outer, auto Inner>
inline constexpr auto nested = [](auto& row) -> auto& {
  return row.*Outer.*Inner;
};

/// The type of the row field that `field` (a member pointer or a nested
/// accessor) names.
template <typename Row, typename Field>
using FieldOf =
    std::remove_cvref_t<std::invoke_result_t<const Field&, const Row&>>;

/// The stored value of a row field, whose type picks the column type:
/// u64 for integers and addresses (signed ones as their two's-complement
/// bits), f64 for doubles, u8 for one-byte enums, the bytes for strings.
template <typename T>
auto to_column(const T& field) {
  if constexpr (std::is_same_v<T, double>) {
    return field;
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "enum columns are u8");
    return static_cast<std::uint8_t>(field);
  } else if constexpr (std::is_same_v<T, netsim::IPv4Addr>) {
    return std::uint64_t{field.value()};
  } else if constexpr (std::is_same_v<T, std::string>) {
    return std::string_view(field);
  } else {
    static_assert(std::is_integral_v<T>, "no column type for this field");
    return static_cast<std::uint64_t>(field);
  }
}

/// The stored type of a T field.
template <typename T>
using ColumnValue = decltype(to_column(std::declval<const T&>()));

/// The inverse of to_column; false when `value` does not fit the field.
template <typename Value, typename T>
bool from_column(Value value, T& field) {
  if constexpr (std::is_same_v<T, netsim::IPv4Addr>) {
    if (!std::in_range<std::uint32_t>(value)) return false;
    field = netsim::IPv4Addr(static_cast<std::uint32_t>(value));
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    const auto bits = static_cast<std::int64_t>(value);
    if (!std::in_range<T>(bits)) return false;
    field = static_cast<T>(bits);
  } else if constexpr (std::is_integral_v<T>) {
    if (!std::in_range<T>(value)) return false;
    field = static_cast<T>(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    field.assign(value);
  } else {
    field = static_cast<T>(value);  // f64 and u8 enums: no narrowing
  }
  return true;
}

/// The "events" dataset: the joined NSSet-attack events, every field,
/// lossless (unlike the events CSV). Each column also names the
/// core::EventFrame span the analysis kernels read it through, which
/// read_event_frame and OwnedEventFrame fill.
struct EventColumns {
  using Row = core::NssetAttackEvent;

  template <auto Field>
  static constexpr auto rsdos = nested<&Row::rsdos, Field>;
  template <auto Field>
  static constexpr auto resilience = nested<&Row::resilience, Field>;

  /// Calls visit(column, encoding, field, &core::EventFrame::span) for
  /// each column in block order.
  template <typename Visit>
  static void for_each_column(Visit&& visit) {
    using E = telescope::RSDoSEvent;
    using P = core::ResilienceProfile;
    using F = core::EventFrame;
    const auto column = [&]<typename Field, typename Span>(
                            std::string_view name, Encoding encoding,
                            Field field, Span F::*span) {
      static_assert(
          std::is_same_v<Span, ColumnSpan<ColumnValue<FieldOf<Row, Field>>>>,
          "a frame span holds its column's stored values");
      visit(name, encoding, field, span);
    };
    // telescope event
    column("victim", Encoding::Varint, rsdos<&E::victim>, &F::victim);
    column("start_window", Encoding::DeltaVarint, rsdos<&E::start_window>,
           &F::start_window);
    column("end_window", Encoding::DeltaVarint, rsdos<&E::end_window>,
           &F::end_window);
    column("max_ppm", Encoding::Fixed, rsdos<&E::max_ppm>, &F::max_ppm);
    column("total_packets", Encoding::Varint, rsdos<&E::total_packets>,
           &F::total_packets);
    column("max_slash16", Encoding::Varint, rsdos<&E::max_slash16>,
           &F::max_slash16);
    column("protocol", Encoding::Fixed, rsdos<&E::protocol>, &F::protocol);
    column("first_port", Encoding::Varint, rsdos<&E::first_port>,
           &F::first_port);
    column("max_unique_ports", Encoding::Varint, rsdos<&E::max_unique_ports>,
           &F::max_unique_ports);
    // join outcome
    column("nsset", Encoding::Varint, &Row::nsset, &F::nsset);
    column("domains_hosted", Encoding::Varint, &Row::domains_hosted,
           &F::domains_hosted);
    column("domains_measured", Encoding::Varint, &Row::domains_measured,
           &F::domains_measured);
    column("baseline_rtt_ms", Encoding::Fixed, &Row::baseline_rtt_ms,
           &F::baseline_rtt_ms);
    column("peak_impact", Encoding::Fixed, &Row::peak_impact,
           &F::peak_impact);
    column("mean_impact", Encoding::Fixed, &Row::mean_impact,
           &F::mean_impact);
    column("ok", Encoding::Varint, &Row::ok, &F::ok);
    column("timeouts", Encoding::Varint, &Row::timeouts, &F::timeouts);
    column("servfails", Encoding::Varint, &Row::servfails, &F::servfails);
    column("failure_rate", Encoding::Fixed, &Row::failure_rate,
           &F::failure_rate);
    // resilience profile
    column("anycast_class", Encoding::Fixed, resilience<&P::anycast_class>,
           &F::anycast_class);
    column("distinct_asns", Encoding::Varint, resilience<&P::distinct_asns>,
           &F::distinct_asns);
    column("distinct_slash24", Encoding::Varint,
           resilience<&P::distinct_slash24>, &F::distinct_slash24);
    column("nameserver_count", Encoding::Varint,
           resilience<&P::nameserver_count>, &F::nameserver_count);
    column("asn", Encoding::Varint, resilience<&P::asn>, &F::asn);
    column("org", Encoding::StringBlock, resilience<&P::org>, &F::org);
  }
};

/// Writes `rows` (Columns::Row, or convertible to it) as the `Columns`
/// dataset `dataset`, one whole column at a time: each column's pieces
/// are encoded on the exec pool and handed to the writer before the next
/// column starts, into buffers the columns share.
template <typename Columns, typename Rows>
void write_dataset(Writer& writer, std::string_view dataset,
                   const Rows& rows) {
  using Row = typename Columns::Row;
  PieceEncoder pieces;
  Columns::for_each_column([&]<typename Field>(std::string_view column,
                                               Encoding encoding, Field field,
                                               auto...) {
    write_column(writer, pieces, dataset, column,
                 AppenderFor<ColumnValue<FieldOf<Row, Field>>>(encoding), rows,
                 [field](const Row& row) {
                   return to_column(std::invoke(field, row));
                 });
  });
}

/// One `Columns` dataset written a batch of rows at a time — the
/// streaming executor's feed writer, which never holds the rows. Each
/// append encodes every column through one PieceEncoder (the batch's parts
/// as segments, carrying the row before the batch) and keeps one
/// exact-size copy of the column's pieces, with its CRC, not the encoder's
/// worst-case buffers: one copy per batch, as thousands of piece-sized
/// ones fragment the heap. Appending the rows write_dataset would write,
/// in its order, and flushing produces its blocks byte for byte.
template <typename Columns>
class DatasetAppender {
 public:
  using Row = typename Columns::Row;

  explicit DatasetAppender(std::string dataset)
      : dataset_(std::move(dataset)) {
    Columns::for_each_column([&](auto...) { columns_.emplace_back(); });
  }

  /// Encodes the rows of `parts`, in order, as every column's next rows.
  void append(std::span<const std::span<const Row>> parts) {
    std::size_t i = 0;
    Columns::for_each_column([&]<typename Field>(std::string_view,
                                                 Encoding encoding,
                                                 Field field, auto...) {
      using Value = ColumnValue<FieldOf<Row, Field>>;
      const auto get = [field](const Row& row) {
        return to_column(std::invoke(field, row));
      };
      const Value carry = rows_ > 0 ? get(last_) : Value{};
      const std::span<const PayloadPiece> pieces =
          pieces_.encode(AppenderFor<Value>(encoding), parts, get, carry);
      std::size_t bytes = 0;
      for (const PayloadPiece& piece : pieces) bytes += piece.bytes.size();
      std::string& copy = copies_.emplace_back();
      copy.reserve(bytes);
      for (const PayloadPiece& piece : pieces) copy += piece.bytes;
      columns_[i++].emplace_back(copy);
    });
    for (const auto part : parts) {
      rows_ += part.size();
      if (!part.empty()) last_ = part.back();
    }
  }

  /// Adds every column to `writer` as one block of its pieces.
  void flush_to(Writer& writer) const {
    std::size_t i = 0;
    Columns::for_each_column([&]<typename Field>(std::string_view column,
                                                 Encoding encoding, Field,
                                                 auto...) {
      writer.add_encoded(dataset_, column,
                         AppenderFor<ColumnValue<FieldOf<Row, Field>>>::kType,
                         encoding, rows_, columns_[i++]);
    });
  }

 private:
  std::string dataset_;
  PieceEncoder pieces_;
  std::deque<std::string> copies_;  // one per column and batch; never moved
  std::vector<std::vector<PayloadPiece>> columns_;  // viewing copies_
  std::uint64_t rows_ = 0;
  Row last_{};  // the last row appended, once rows_ > 0
};

/// The first value of a column that its row field cannot hold: its row
/// (the column's row count when every value fits) and the error naming
/// the path, `dataset.column` and the row.
struct Misfit {
  std::uint64_t row = 0;
  std::string error;
};

/// Decodes `desc`'s block into `arena` as the stored values of a T row
/// field and sets `misfit` to the first value the field cannot hold — the
/// one per-column read of decode_dataset and merge_stores.
template <typename T>
ColumnSpan<ColumnValue<T>> decode_field(const Reader& reader,
                                        const ColumnDesc& desc,
                                        ColumnArena& arena, Misfit& misfit) {
  const ColumnSpan<ColumnValue<T>> values =
      scan<ColumnValue<T>>(reader, desc, arena);
  misfit = {values.size(), {}};
  if constexpr (!std::is_same_v<T, std::string>) {  // strings always fit
    T unused{};
    for (std::uint64_t r = 0; r < values.size(); ++r) {
      if (from_column(values[r], unused)) continue;
      misfit = {r, reader.path() + ": column '" + desc.dataset + "." +
                       desc.column + "': row " + std::to_string(r) +
                       " holds " + std::to_string(values[r]) +
                       ", which does not fit its field"};
      break;
    }
  }
  return values;
}

/// Decodes the `Columns` dataset `dataset` into `arena` and returns one
/// span per column in Columns order. The column decodes (decode_field)
/// fan out through Reader::parallel_decode; the first misfit in row order
/// (then column order) throws StoreError naming the path and
/// `dataset.column`.
template <typename Columns>
std::vector<ColumnTypes::AnyOf<ColumnSpan>> decode_dataset(
    const Reader& reader, std::string_view dataset, ColumnArena& arena) {
  using Row = typename Columns::Row;
  const std::uint64_t rows = reader.dataset_rows(dataset);
  std::vector<ColumnTypes::AnyOf<ColumnSpan>> values;
  std::vector<Misfit> misfits;
  std::vector<std::function<void()>> decodes;
  Columns::for_each_column([&]<typename Field>(std::string_view column,
                                               Encoding, Field, auto...) {
    values.emplace_back();
    misfits.emplace_back();
    const ColumnDesc* desc = &reader.column(dataset, column);
    decodes.push_back([&, desc, i = values.size() - 1] {
      values[i] = decode_field<FieldOf<Row, Field>>(reader, *desc, arena,
                                                    misfits[i]);
    });
  });
  Reader::parallel_decode(decodes);

  const auto first = std::min_element(
      misfits.begin(), misfits.end(),
      [](const Misfit& a, const Misfit& b) { return a.row < b.row; });
  if (first != misfits.end() && first->row < rows) {
    throw StoreError(first->error);
  }
  return values;
}

/// Decodes the `Columns` dataset `dataset` into `arena` and calls
/// each(row) for every row in stored order, the row an rvalue. Throws as
/// decode_dataset does.
template <typename Columns, typename Each>
void read_dataset(const Reader& reader, std::string_view dataset,
                  ColumnArena& arena, Each&& each) {
  using Row = typename Columns::Row;
  const std::vector<ColumnTypes::AnyOf<ColumnSpan>> values =
      decode_dataset<Columns>(reader, dataset, arena);
  const std::uint64_t rows = reader.dataset_rows(dataset);
  for (std::uint64_t r = 0; r < rows; ++r) {
    Row row{};
    std::size_t i = 0;
    Columns::for_each_column([&]<typename Field>(std::string_view, Encoding,
                                                 Field field, auto...) {
      using Value = ColumnValue<FieldOf<Row, Field>>;
      from_column(std::get<ColumnSpan<Value>>(values[i++])[r],
                  std::invoke(field, row));
    });
    each(std::move(row));
  }
}

/// One column's values owned, as OwnedEventFrame holds them; span() is
/// what scan<V> would return for them.
template <typename V>
struct OwnedColumn {
  explicit OwnedColumn(std::size_t rows) { values.reserve(rows); }
  std::vector<V> values;
  void push_back(V value) { values.push_back(value); }
  ColumnSpan<V> span() const { return values; }
};

/// A string column owned as its bytes and the SoA offsets into them.
template <>
struct OwnedColumn<std::string_view> {
  explicit OwnedColumn(std::size_t rows) {
    starts.reserve(rows);
    lens.reserve(rows);
  }
  std::string bytes;
  std::vector<std::uint64_t> starts;
  std::vector<std::uint64_t> lens;
  void push_back(std::string_view value) {
    starts.push_back(bytes.size());
    lens.push_back(value.size());
    bytes += value;
  }
  ColumnSpan<std::string_view> span() const { return {bytes, starts, lens}; }
};

/// An EventFrame over owned columns laid out from joined rows, one per
/// EventColumns column — how an in-memory run presents its events to the
/// analysis kernels. Build it once per row set and pass frame() to every
/// kernel.
class OwnedEventFrame {
 public:
  explicit OwnedEventFrame(std::span<const core::NssetAttackEvent> rows);

  OwnedEventFrame(const OwnedEventFrame&) = delete;
  OwnedEventFrame& operator=(const OwnedEventFrame&) = delete;

  const core::EventFrame& frame() const { return frame_; }

 private:
  core::EventFrame frame_;
  // A deque: adding a column never moves the ones frame_ already spans.
  std::deque<ColumnTypes::AnyOf<OwnedColumn>> columns_;
};

/// The result counts a store's footer records after the generating
/// provenance: the run's sizes and its join dispositions.
struct RunCounts {
  std::uint64_t attacks = 0;       // scheduled attacks
  std::uint64_t feed_records = 0;  // rows of the "feed" dataset
  std::uint64_t events = 0;        // stitched telescope events
  std::uint64_t joined = 0;        // rows of the "events" dataset
  std::uint64_t swept_measurements = 0;
  core::JoinStats stats;
};

/// How merge_stores combines one count over the shard stores.
enum class CountMerge : std::uint8_t {
  Equal,    // a whole-world count: every shard records the same value
  Recount,  // counted again from the merged events
  Sum,      // a per-shard tally
};

/// The footer's count keys in footer order: calls visit(key, rule, value)
/// for each count of `counts`.
template <typename Counts, typename Visit>
void for_each_count(Counts& counts, Visit&& visit) {
  visit("result.attacks", CountMerge::Equal, counts.attacks);
  visit("result.feed_records", CountMerge::Sum, counts.feed_records);
  visit("result.events", CountMerge::Equal, counts.events);
  visit("result.joined", CountMerge::Recount, counts.joined);
  visit("result.swept_measurements", CountMerge::Sum,
        counts.swept_measurements);
  auto& s = counts.stats;
  visit("stats.total_events", CountMerge::Sum, s.total_events);
  visit("stats.open_resolver_filtered", CountMerge::Sum,
        s.open_resolver_filtered);
  visit("stats.non_dns", CountMerge::Sum, s.non_dns);
  visit("stats.not_seen_day_before", CountMerge::Sum, s.not_seen_day_before);
  visit("stats.below_measurement_floor", CountMerge::Sum,
        s.below_measurement_floor);
  visit("stats.no_baseline", CountMerge::Sum, s.no_baseline);
  visit("stats.joined", CountMerge::Recount, s.joined);
  visit("stats.dns_events", CountMerge::Sum, s.dns_events);
}

/// The rule of the "victims" dataset of a whole-run store: throws
/// StoreError naming `path` and `victims.*` unless `rows` are strictly
/// ascending by victim, every count is at least 1 and the counts sum to
/// `events`, the footer's stitched-event count.
void check_victims(const std::string& path,
                   std::span<const telescope::VictimAttacks> rows,
                   std::uint64_t events);
/// The "victims" dataset of a whole-run store, refused unless it keeps
/// check_victims' rule.
std::vector<telescope::VictimAttacks> read_victims(const Reader& reader,
                                                   std::uint64_t events);

/// Adds (or, for keys already present, overwrites in place) every count.
void write_counts(Writer& writer, const RunCounts& counts);
/// Throws StoreError when a count key is missing or not an integer.
RunCounts read_counts(const Reader& reader);
/// Throws StoreError naming the store at `path` when `decoded` differs
/// from the count the footer records; `what` names the count in the
/// message.
void check_count(const std::string& path, std::string_view what,
                 std::uint64_t stored, std::uint64_t decoded);

/// The one provenance key the store layer reads itself: merge_stores
/// re-runs the concurrent-event merge only when the generating join did.
inline constexpr std::string_view kMergeConcurrentKey =
    "join.merge_concurrent";

/// `bytes` over `elapsed` in MB/s (0 for an empty interval).
double mb_per_s(std::uint64_t bytes,
                std::chrono::steady_clock::duration elapsed);
/// Sets the installed observer's store-read gauges for `bytes` read over
/// `elapsed` and returns that read rate in MB/s.
double record_store_read(std::uint64_t bytes,
                         std::chrono::steady_clock::duration elapsed);

}  // namespace ddos::store
