// RSDoS inference (Moore et al. 2006; CAIDA's curated feed, §3.1).
//
// Input: per-victim, per-5-minute-window backscatter aggregates captured by
// the darknet. Output: RSDoSRecord rows with the exact fields the paper
// lists — timestamp, victim, /16 spread, protocol, first port, number of
// unique ports, peak observed packet rate — after noise thresholds that
// discard scanning artefacts and misconfigurations.
//
// Records for the same victim separated by at most `max_gap_windows` empty
// windows are then stitched into RSDoSEvents, the unit of the paper's
// duration analysis (§6.5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/backscatter.h"
#include "netsim/ipv4.h"
#include "netsim/simtime.h"
#include "util/flat_map.h"

namespace ddos::telescope {

/// One row of the curated attack feed (5-minute tumbling window).
struct RSDoSRecord {
  netsim::WindowIndex window = 0;
  netsim::IPv4Addr victim;
  std::uint32_t distinct_slash16 = 0;
  attack::Protocol protocol = attack::Protocol::TCP;
  std::uint16_t first_port = 0;
  std::uint16_t unique_ports = 1;
  double max_ppm = 0.0;          // peak packet rate at the telescope, pkt/min
  std::uint64_t packets = 0;     // backscatter packets in the window

  std::string to_csv_row() const;
  static std::string csv_header();

  /// Field-exact equality (store round-trip assertions).
  friend bool operator==(const RSDoSRecord&, const RSDoSRecord&) = default;
};

/// Classification thresholds, after Moore et al.: a victim must hit enough
/// telescope addresses (wide /16 spread ⇒ uniform spoofing) at a minimum
/// rate before a window counts as attack evidence.
struct InferenceParams {
  std::uint64_t min_packets_per_window = 25;
  std::uint32_t min_distinct_slash16 = 25;
  double min_ppm = 5.0;
  /// Windows with no evidence tolerated inside one attack event.
  int max_gap_windows = 2;
};

/// Window-level classification.
bool passes_thresholds(const attack::BackscatterWindow& bw,
                       const InferenceParams& params);

/// Convert an accepted backscatter window into a feed record.
RSDoSRecord to_record(const attack::BackscatterWindow& bw);

/// A stitched attack event: consecutive feed records for one victim.
struct RSDoSEvent {
  netsim::IPv4Addr victim;
  netsim::WindowIndex start_window = 0;
  netsim::WindowIndex end_window = 0;  // inclusive
  double max_ppm = 0.0;
  std::uint64_t total_packets = 0;
  std::uint32_t max_slash16 = 0;
  attack::Protocol protocol = attack::Protocol::TCP;
  std::uint16_t first_port = 0;
  std::uint16_t max_unique_ports = 1;

  std::int64_t duration_s() const {
    return (end_window - start_window + 1) * netsim::kSecondsPerWindow;
  }
  netsim::SimTime start_time() const {
    return netsim::window_start(start_window);
  }
  netsim::SimTime end_time() const {
    return netsim::window_start(end_window + 1);
  }

  /// Field-exact equality (store round-trip assertions).
  friend bool operator==(const RSDoSEvent&, const RSDoSEvent&) = default;
};

/// Total order on feed records: (victim, window) first — the canonical
/// event order — then every remaining field as a tie-break. Two attacks
/// can hit one victim in the same window (victim reuse), and the stitched
/// event's protocol/first_port come from the run's first record, so the
/// choice must not depend on arrival order: under a total order the
/// stitcher picks the same head record no matter how the input was
/// produced (ingest order, shard order, a store's column order).
bool record_less(const RSDoSRecord& a, const RSDoSRecord& b);

/// The event stitcher — the one place feed records become RSDoSEvents.
/// Accepts records one at a time in any order; finish() yields one event
/// per maximal run of a victim's records whose consecutive windows are at
/// most max_gap_windows+1 apart, in canonical (victim, start_window)
/// order. Per victim it maintains disjoint runs (adjacent runs separated
/// by more than max_gap_windows+1 windows); a new record inserts as a
/// singleton run and merges with at most one neighbour on each side. Each
/// run keeps only the record_less-minimal record (the head, which
/// supplies protocol/first_port) plus order-independent folds (max_ppm,
/// total_packets, max_slash16, max_unique_ports), so memory is
/// O(events), not O(records) and the output is a function of the record
/// multiset alone. That is what lets the streaming driver retire feed
/// records shard by shard, and RSDoSFeed::events() and the serving load
/// path run the same code over a record vector or a store's columns.
class EventStitcher {
 public:
  explicit EventStitcher(const InferenceParams& params) : params_(params) {}

  void add(const RSDoSRecord& record);

  /// Events in canonical (victim, start_window) order.
  std::vector<RSDoSEvent> finish() const;

  std::uint64_t records_added() const { return records_added_; }

 private:
  struct Run {
    RSDoSRecord head;  // record_less-min of the run: protocol/first_port
    netsim::WindowIndex start = 0;
    netsim::WindowIndex end = 0;
    double max_ppm = 0.0;
    std::uint64_t total_packets = 0;
    std::uint32_t max_slash16 = 0;
    std::uint16_t max_unique_ports = 1;
  };

  InferenceParams params_;
  std::uint64_t records_added_ = 0;
  // Victim address value -> its run list in runs_. Run lists stay sorted
  // by start with gaps > max_gap_windows+1 between neighbours.
  util::FlatMap<std::uint32_t, std::uint32_t> slot_of_;
  std::vector<std::vector<Run>> runs_;
  // The previous add's victim and its slot.
  std::uint32_t last_victim_ = 0;
  std::uint32_t last_slot_ = 0;
};

}  // namespace ddos::telescope
