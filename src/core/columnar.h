// Joined-event analyses (§6.3–6.6: Figs. 7–13, Table 6) — one kernel per
// statistic, each over the column spans of a core::EventFrame. A stored
// run hands the kernels the DRS "events" dataset's columns; an in-memory
// run (or a CSV import) lays its joined rows out once as an
// OwnedEventFrame. Either way every statistic has exactly one
// implementation.
//
// The parallel kernels are bit-identical at any thread count: shards are
// a pure function of the row count (exec::plan_shards) and per-shard
// partials fold in shard index order (ordered reduction), so integer
// tallies, concatenated series and per-group impact vectors come out in
// event order exactly as a serial loop produces them. The rest are serial
// loops.
//
// The spans in an EventFrame borrow from a store::Reader (zero-copy
// fixed-width columns over the mapping) and a store::ColumnArena (decoded
// varint/string columns), or from an OwnedEventFrame; callers keep the
// owner alive while the frame is in use. core does not depend on store —
// store/scan.h provides the loader.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/join.h"
#include "telescope/darknet.h"
#include "util/histogram.h"

namespace ddos::core {

/// SoA view of one string column: per-row [start, start+len) slices of a
/// shared byte buffer (the block payload itself on the zero-copy path).
struct StringColumnView {
  using value_type = std::string_view;  // a row, as std::span names it

  std::string_view bytes;
  std::span<const std::uint64_t> starts;
  std::span<const std::uint64_t> lens;

  std::size_t size() const { return starts.size(); }
  std::string_view operator[](std::size_t i) const {
    return bytes.substr(starts[i], lens[i]);
  }

  /// The rows in order, so a string column iterates like a span.
  struct Iterator {
    const StringColumnView* view;
    std::size_t row;
    std::string_view operator*() const { return (*view)[row]; }
    Iterator& operator++() {
      ++row;
      return *this;
    }
    bool operator==(const Iterator&) const = default;
  };
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size()}; }
};

/// Column spans of the joined NSSet-attack "events" dataset, in the
/// store schema (store/dataset.h for_each_event_column). All spans have
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
/// store schema — how an in-memory run presents its events to the
/// kernels, and how rows are written to a store. Build it once per row
/// set and pass frame() to every kernel.
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

/// The joined rows of a frame — the inverse of OwnedEventFrame:
/// events_from_frame(OwnedEventFrame(rows).frame()) == rows. load_run and
/// merge_stores read stored events back as rows through it.
std::vector<NssetAttackEvent> events_from_frame(const EventFrame& f);

// ---------------------------------------------------- Fig 7 and §6.3.1

struct FailureSummary {
  std::uint64_t events = 0;               // joined NSSet-attack events
  std::uint64_t events_with_failures = 0; // ~1% in the paper
  std::uint64_t timeouts = 0;
  std::uint64_t servfails = 0;
  util::CategoryCounter failed_event_ports;  // port mix of harmful attacks
  double failing_event_share() const {
    return events ? static_cast<double>(events_with_failures) / events : 0.0;
  }
  double timeout_share_of_failures() const {
    const std::uint64_t f = timeouts + servfails;
    return f ? static_cast<double>(timeouts) / f : 0.0;
  }
};

FailureSummary failure_summary_columnar(const EventFrame& f);

/// Scatter points of Fig. 7: x = domains measured during the attack,
/// y = failure rate, colour = hosted-domain magnitude.
struct FailurePoint {
  std::uint32_t domains_measured = 0;
  double failure_rate = 0.0;
  std::uint64_t domains_hosted = 0;
  bool unicast_only = false;
};

/// One point per event with any failure, in event order.
std::vector<FailurePoint> failure_points_columnar(const EventFrame& f);

// ----------------------------------------------------------------- Fig 8

struct ImpactSummary {
  std::uint64_t events = 0;
  std::uint64_t impaired_10x = 0;  // >= 10-fold RTT increase (~5% in paper)
  std::uint64_t severe_100x = 0;   // >= 100-fold (~1/3 of the impaired)
  double impaired_share() const {
    return events ? static_cast<double>(impaired_10x) / events : 0.0;
  }
  double severe_share_of_impaired() const {
    return impaired_10x ? static_cast<double>(severe_100x) / impaired_10x
                        : 0.0;
  }
};

ImpactSummary impact_summary_columnar(const EventFrame& f);

struct ImpactPoint {
  std::uint64_t domains_hosted = 0;
  double peak_impact = 0.0;
  bool anycast = false;  // Full anycast per the census
};

/// One point per event, in event order.
std::vector<ImpactPoint> impact_points_columnar(const EventFrame& f);

// ------------------------------------------------------------- Figs 9/10

struct CorrelationSeries {
  std::vector<double> x;
  std::vector<double> y;
  double pearson = 0.0;
  double spearman = 0.0;
  std::size_t n() const { return x.size(); }
};

/// Fig. 9: x = inferred attack intensity (telescope max ppm extrapolated
/// to victim pps through the darknet fraction), y = peak Impact_on_RTT,
/// over events with a positive peak impact.
CorrelationSeries intensity_impact_series_columnar(
    const EventFrame& f, const telescope::Darknet& darknet);

/// Fig. 10: x = attack duration (seconds), y = peak Impact_on_RTT, over
/// events with a positive peak impact.
CorrelationSeries duration_impact_series_columnar(const EventFrame& f);

/// Histogram of event durations in minutes (paper: bimodal, 15 and 60).
util::CategoryCounter duration_mode_histogram_columnar(const EventFrame& f);

// ------------------------------------------------------------ Figs 11-13

struct GroupImpact {
  std::string group;
  std::uint64_t events = 0;
  double median_impact = 0.0;
  double p90_impact = 0.0;
  double max_impact = 0.0;
  std::uint64_t impaired_10x = 0;
  std::uint64_t severe_100x = 0;
  std::uint64_t events_with_failures = 0;
  std::uint64_t complete_failures = 0;
};

/// Fig. 11 — by anycast class (unicast / partial / full).
std::vector<GroupImpact> impact_by_anycast_columnar(const EventFrame& f);

/// Fig. 12 — by AS diversity (1 / 2 / 3+ distinct origin ASNs).
std::vector<GroupImpact> impact_by_as_diversity_columnar(const EventFrame& f);

/// Fig. 13 — by /24 prefix diversity (1 / 2 / 3+ distinct /24s).
std::vector<GroupImpact> impact_by_prefix_diversity_columnar(
    const EventFrame& f);

/// §6.6.2/§6.6.3 attribution: among complete-failure events, the share on
/// single-ASN and single-/24 NSSets (81% and 60% in the paper).
struct FailureAttribution {
  std::uint64_t complete_failures = 0;
  std::uint64_t single_asn = 0;
  std::uint64_t single_prefix = 0;
  std::uint64_t unicast = 0;
  double single_asn_share() const {
    return complete_failures
               ? static_cast<double>(single_asn) / complete_failures
               : 0.0;
  }
  double single_prefix_share() const {
    return complete_failures
               ? static_cast<double>(single_prefix) / complete_failures
               : 0.0;
  }
  double unicast_share() const {
    return complete_failures
               ? static_cast<double>(unicast) / complete_failures
               : 0.0;
  }
};

FailureAttribution failure_attribution_columnar(const EventFrame& f);

// ---------------------------------------------------------------- Table 6

struct CompanyImpact {
  std::string org;
  double max_impact = 0.0;
};

/// Top-k organisations by maximum observed Impact_on_RTT (Table 6).
std::vector<CompanyImpact> top_companies_by_impact_columnar(
    const EventFrame& f, std::size_t k);

// ------------------------------------------------------- monthly rollup

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

}  // namespace ddos::core
