// Columnar analysis kernels — the §6 headline statistics recomputed
// directly over the DRS "events" dataset's column spans, with no
// NssetAttackEvent row materialization. Each kernel mirrors one row fold
// from core/analysis.h and is bit-identical to it at any thread count:
// shards are a pure function of the row count (exec::plan_shards) and
// per-shard partials fold in shard index order (ordered reduction), so
// integer tallies, concatenated series and per-group impact vectors come
// out in event order exactly as the serial row loops produce them.
//
// The spans in an EventFrame borrow from a store::Reader (zero-copy
// fixed-width columns over the mapping) and a store::ColumnArena (decoded
// varint/string columns); callers keep both alive while the frame is in
// use. core does not depend on store — store/scan.h provides the loader.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.h"

namespace ddos::core {

/// SoA view of one string column: per-row [start, start+len) slices of a
/// shared byte buffer (the block payload itself on the zero-copy path).
struct StringColumnView {
  std::string_view bytes;
  std::span<const std::uint64_t> starts;
  std::span<const std::uint64_t> lens;

  std::size_t size() const { return starts.size(); }
  std::string_view operator[](std::size_t i) const {
    return bytes.substr(starts[i], lens[i]);
  }
};

/// Column spans of the joined NSSet-attack "events" dataset, in the
/// store schema (store/dataset.cpp write_joined_events). All spans have
/// `rows` elements.
struct EventFrame {
  std::size_t rows = 0;
  // telescope event
  std::span<const std::uint64_t> victim;
  std::span<const std::uint64_t> start_window;
  std::span<const std::uint64_t> end_window;
  std::span<const double> max_ppm;
  std::span<const std::uint64_t> total_packets;
  std::span<const std::uint64_t> max_slash16;
  std::span<const std::uint8_t> protocol;
  std::span<const std::uint64_t> first_port;
  std::span<const std::uint64_t> max_unique_ports;
  // join outcome
  std::span<const std::uint64_t> nsset;
  std::span<const std::uint64_t> domains_hosted;
  std::span<const std::uint64_t> domains_measured;
  std::span<const double> baseline_rtt_ms;
  std::span<const double> peak_impact;
  std::span<const double> mean_impact;
  std::span<const std::uint64_t> ok;
  std::span<const std::uint64_t> timeouts;
  std::span<const std::uint64_t> servfails;
  std::span<const double> failure_rate;
  // resilience profile
  std::span<const std::uint8_t> anycast_class;
  std::span<const std::uint64_t> distinct_asns;
  std::span<const std::uint64_t> distinct_slash24;
  std::span<const std::uint64_t> nameserver_count;
  std::span<const std::uint64_t> asn;
  StringColumnView org;

  bool any_failure(std::size_t i) const {
    return timeouts[i] + servfails[i] > 0;
  }
  bool complete_failure(std::size_t i) const {
    return domains_measured[i] > 0 && ok[i] == 0;
  }
  std::int64_t duration_s(std::size_t i) const;
};

/// An EventFrame over owned columns laid out from joined rows in the
/// store schema — how an in-memory run presents its events to a
/// frame consumer (frame_equals_events(frame(), rows) holds).
class OwnedEventFrame {
 public:
  explicit OwnedEventFrame(const std::vector<NssetAttackEvent>& events);

  OwnedEventFrame(const OwnedEventFrame&) = delete;
  OwnedEventFrame& operator=(const OwnedEventFrame&) = delete;

  const EventFrame& frame() const { return frame_; }

 private:
  EventFrame frame_;
  // Deques: appending a column never moves the ones frame_ already spans.
  std::deque<std::vector<std::uint64_t>> u64_;
  std::deque<std::vector<double>> f64_;
  std::deque<std::vector<std::uint8_t>> u8_;
  std::string org_bytes_;
};

// ---- kernels (bit-identical to the row functions of analysis.h) ------

ImpactSummary impact_summary_columnar(const EventFrame& f);
FailureSummary failure_summary_columnar(const EventFrame& f);
CorrelationSeries duration_impact_series_columnar(const EventFrame& f);
std::vector<GroupImpact> impact_by_anycast_columnar(const EventFrame& f);

/// Per-month rollup of joined events (month of the attack's first
/// window) — the stored-run counterpart of the Table 3 monthly view.
struct MonthlyJoinedRow {
  int year = 0;
  int month = 0;
  std::uint64_t events = 0;
  std::uint64_t impaired_10x = 0;
  std::uint64_t severe_100x = 0;
  std::uint64_t events_with_failures = 0;
};

std::vector<MonthlyJoinedRow> monthly_joined_summary_columnar(
    const EventFrame& f);
/// Row reference of the same rollup, for parity tests.
std::vector<MonthlyJoinedRow> monthly_joined_summary(
    const std::vector<NssetAttackEvent>& events);

/// Field-exact comparison of a frame against materialized rows — the
/// columnar form of the --rejoin bit-for-bit assertion (no stored-row
/// materialization needed on the left side).
bool frame_equals_events(const EventFrame& f,
                         const std::vector<NssetAttackEvent>& events);

}  // namespace ddos::core
