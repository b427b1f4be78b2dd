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

#include <cstddef>
#include <cstdint>
#include <span>
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

/// Stitched events against one victim IP: the paper's "top attacked
/// targets" count (Tables 4-5).
struct VictimAttacks {
  std::uint32_t victim = 0;  // address value
  std::uint64_t attacks = 0;

  friend bool operator==(const VictimAttacks&, const VictimAttacks&) = default;
};

/// Events per victim, ascending by victim, from events in canonical
/// (victim, start_window) order: one row per victim, every count >= 1.
std::vector<VictimAttacks> count_attacks(std::span<const RSDoSEvent> events);

/// Total order on feed records: (victim, window) first — the canonical
/// event order — then every remaining field as a tie-break. Two attacks
/// can hit one victim in the same window (victim reuse), and the stitched
/// event's protocol/first_port come from the run's first record, so the
/// choice must not depend on arrival order: under a total order the
/// stitcher picks the same head record no matter how the input was
/// produced (ingest order, shard order, a store's column order).
bool record_less(const RSDoSRecord& a, const RSDoSRecord& b);

/// One batch of feed records for EventStitcher::add: the concatenation of
/// its parts (an ingest region's shard outputs, in shard order, or one
/// whole record vector).
using RecordBatch = std::span<const std::span<const RSDoSRecord>>;

/// Every stride-th of n victims, victim_of(i) giving the i-th address
/// value, with the stride picked so at most ~4096 are taken: the sample
/// EventStitcher cuts its victim ranges from.
template <typename VictimOf>
std::vector<std::uint32_t> sample_victims(std::size_t n, VictimOf&& victim_of) {
  constexpr std::size_t kSample = 4096;
  const std::size_t stride = n / kSample + 1;
  std::vector<std::uint32_t> sample;
  sample.reserve(n / stride + 1);
  for (std::size_t i = 0; i < n; i += stride) sample.push_back(victim_of(i));
  return sample;
}

/// The event stitcher — the one place feed records become RSDoSEvents.
/// Accepts records in batches, in any order; finish() yields one event per
/// maximal run of a victim's records whose consecutive windows are at most
/// max_gap_windows+1 apart, in canonical (victim, start_window) order.
///
/// Victims are split into contiguous address ranges, cut at quantiles of a
/// victim sample, one range per participant of the exec pool (a 1-thread
/// pool, or no sample, is one range: a plain serial loop). Each add() and
/// finish() is one parallel region with a task per range; a range's task
/// reads the whole batch in place and takes the records whose victim lies
/// in its range. Events never span victims, so every event belongs to one
/// range, and finish() writes range r's events, sorted, into its slice of
/// one pre-sized vector: the slices in range order are the canonical order
/// with no merge. The cuts only decide which task stitches a victim, so
/// no output depends on the sample or on the pool width.
///
/// Per victim a range keeps disjoint runs (adjacent runs separated by more
/// than max_gap_windows+1 windows); a new record inserts as a singleton
/// run and merges with at most one neighbour on each side. Each run keeps
/// only the record_less-minimal record (the head, which supplies
/// protocol/first_port) plus order-independent folds (max_ppm,
/// total_packets, max_slash16, max_unique_ports), so memory is O(events),
/// not O(records), and the output is a function of the record multiset
/// alone. That is what lets the streaming driver retire feed records one
/// ingest region at a time, and RSDoSFeed::events() and load_run run the
/// same code over a record vector.
class EventStitcher {
 public:
  /// `victim_sample`: any sample of the victims to come (sample_victims),
  /// in any order; empty stitches everything as one range.
  explicit EventStitcher(const InferenceParams& params,
                         std::vector<std::uint32_t> victim_sample = {});

  void add(RecordBatch batch);
  void add(std::span<const RSDoSRecord> records) {
    add(RecordBatch(&records, 1));
  }

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

  /// The stitch state of one victim range [lo, lo + width); each on its
  /// own cache lines, as each is written by its own task.
  struct alignas(64) Range {
    std::uint64_t lo = 0;
    std::uint64_t width = 0;
    // Victim address value -> its run list in runs. Run lists stay sorted
    // by start with gaps > max_gap_windows+1 between neighbours.
    util::FlatMap<std::uint32_t, std::uint32_t> slot_of;
    std::vector<std::vector<Run>> runs;
    // The previous add's victim and its slot.
    std::uint32_t last_victim = 0;
    std::uint32_t last_slot = 0;

    bool holds(std::uint64_t victim) const { return victim - lo < width; }
    void add(const RSDoSRecord& record, netsim::WindowIndex reach);
    std::size_t events() const;
    void write_events(RSDoSEvent* out) const;
  };

  InferenceParams params_;
  std::uint64_t records_added_ = 0;
  std::vector<Range> ranges_;
};

}  // namespace ddos::telescope
