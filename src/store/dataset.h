// Pipeline dataset <-> DRS column mapping. Three datasets mirror the
// paper's data layer (DESIGN.md §"Dataset store"):
//
//   "feed"    — the simulated RSDoS feed windows (telescope::RSDoSRecord),
//               one row per curated 5-minute record;
//   "daily" / "window" / "ns_seen"
//             — the OpenINTEL sweep aggregates (openintel::MeasurementStore
//               state): per-(NSSet, day) and per-(NSSet, window) aggregates
//               with their full Welford RTT state, plus the seen-NS sets
//               driving the previous-day join;
//   "events"  — the joined NSSet-attack events (core::NssetAttackEvent),
//               every field, lossless (unlike the events CSV); its one
//               column list is for_each_event_column below.
//
// The footer meta ends with the result counts: one list, for_each_count
// below, that writers, readers, count checks and merge_stores all walk.
//
// Id/timestamp columns are delta+varint encoded (sorted keys compress to
// ~1 byte per row); counts are varints; RTT/impact columns are raw f64
// bit patterns so round trips are bit-exact. Writers encode one column
// at a time through the store/epoch.h appenders; readers decode through
// store/scan.h, fan block decoding out across the exec worker pool and
// throw store::StoreError on any checksum or schema defect.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/columnar.h"
#include "core/join.h"
#include "openintel/storage.h"
#include "store/reader.h"
#include "store/writer.h"
#include "telescope/rsdos.h"

namespace ddos::store {

void write_feed_records(Writer& writer,
                        const std::vector<telescope::RSDoSRecord>& records);
std::vector<telescope::RSDoSRecord> read_feed_records(const Reader& reader);

void write_measurements(Writer& writer,
                        const openintel::MeasurementStore& store);
/// Restores into `store` (expected fresh); total_measurements is restored
/// from the row counts' generating run via scenario::save_run metadata,
/// not here.
void read_measurements(const Reader& reader,
                       openintel::MeasurementStore& store);

/// The "events" dataset schema: calls visit(column, encoding, span) for
/// each column of `frame` in block order. The span's type is the column's
/// type (u64, f64, u8 or the org string column). The events writer and
/// read_event_frame (store/scan.h) both walk this list.
template <typename Frame, typename Visit>
void for_each_event_column(Frame& frame, Visit&& visit) {
  // telescope event
  visit("victim", Encoding::Varint, frame.victim);
  visit("start_window", Encoding::DeltaVarint, frame.start_window);
  visit("end_window", Encoding::DeltaVarint, frame.end_window);
  visit("max_ppm", Encoding::Fixed, frame.max_ppm);
  visit("total_packets", Encoding::Varint, frame.total_packets);
  visit("max_slash16", Encoding::Varint, frame.max_slash16);
  visit("protocol", Encoding::Fixed, frame.protocol);
  visit("first_port", Encoding::Varint, frame.first_port);
  visit("max_unique_ports", Encoding::Varint, frame.max_unique_ports);
  // join outcome
  visit("nsset", Encoding::Varint, frame.nsset);
  visit("domains_hosted", Encoding::Varint, frame.domains_hosted);
  visit("domains_measured", Encoding::Varint, frame.domains_measured);
  visit("baseline_rtt_ms", Encoding::Fixed, frame.baseline_rtt_ms);
  visit("peak_impact", Encoding::Fixed, frame.peak_impact);
  visit("mean_impact", Encoding::Fixed, frame.mean_impact);
  visit("ok", Encoding::Varint, frame.ok);
  visit("timeouts", Encoding::Varint, frame.timeouts);
  visit("servfails", Encoding::Varint, frame.servfails);
  visit("failure_rate", Encoding::Fixed, frame.failure_rate);
  // resilience profile
  visit("anycast_class", Encoding::Fixed, frame.anycast_class);
  visit("distinct_asns", Encoding::Varint, frame.distinct_asns);
  visit("distinct_slash24", Encoding::Varint, frame.distinct_slash24);
  visit("nameserver_count", Encoding::Varint, frame.nameserver_count);
  visit("asn", Encoding::Varint, frame.asn);
  visit("org", Encoding::StringBlock, frame.org);
}

/// Row holders pass core::OwnedEventFrame(rows).frame(); a stored run
/// reads back with core::events_from_frame(read_event_frame(...)).
void write_joined_events(Writer& writer, const core::EventFrame& events);

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

/// Adds (or, for keys already present, overwrites in place) every count.
void write_counts(Writer& writer, const RunCounts& counts);
/// Throws StoreError when a count key is missing or not an integer.
RunCounts read_counts(const Reader& reader);
/// Throws StoreError naming the store when `decoded` differs from the
/// count the footer records; `what` names the count in the message.
void check_count(const Reader& reader, std::string_view what,
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
