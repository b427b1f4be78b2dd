// QueryEngine — the online query-serving layer over a finished DRS run.
//
// A run today is write-once/analyze-once: `analyze --store` recomputes the
// headline statistics in one batch pass and exits. The engine turns the
// same data into an interactive read path. Its index build reads three
// inputs (EngineColumns): the joined NSSet-attack events as a
// core::EventFrame, one series point per (NSSet, day) sweep aggregate of
// the store's "daily" dataset, and the telescope attack count per victim
// IP. It builds three immutable, read-optimized indexes from them:
//
//   * per-NSSet index — joined NSSet-attack events grouped by NSSet plus
//     the per-(NSSet, day) sweep time series, both behind one
//     util::FlatMap probe (PointLookup);
//   * top-K structures — fully-sorted leaderboards per metric (telescope
//     attacks per victim IP, peak Impact_on_RTT per NSSet, failure rate
//     per NSSet), so TopK(k) is a k-entry copy (TopK);
//   * day-epoch window index — dense per-day aggregates of the joined
//     events (failure/impact tallies using the same thresholds and
//     failure test as core::impact_summary_columnar /
//     failure_summary_columnar), so WindowScan(day_lo, day_hi) is a short
//     scan of a contiguous array (WindowScan).
//
// Two sources lay out those inputs. load_engine maps a DRS store and
// reads only the columns the build needs — it never materializes feed
// records, a MeasurementStore or joined rows, and the per-victim counts
// come from stitching the feed's victim and window columns. The
// RunArtifacts constructor lays a live run (or a scenario::load_run
// image) out as the same inputs. Either way the engine copies what it
// indexes and keeps no pointer into its source.
//
// Concurrency model: shared-nothing reads. build happens once on the
// constructing thread; afterwards every query method is const, touches
// only immutable state, and takes no locks — callers bring their own
// scratch (TopK writes into a caller-supplied vector). Any number of
// threads may query one engine concurrently; the load driver
// (serve/driver.h) hammers exactly this contract and CI runs it under
// TSan.
//
// Determinism: answers are pure functions of the run's data. Index build
// order is fixed (canonical joined-event order, ascending keys,
// total-ordered leaderboard ties), so two engines built from bit-identical
// runs — a live run, its load_run image and its load_engine columns —
// answer every query bit-identically. The parity test asserts this and
// checks answers against the batch frame kernels
// (core::impact_summary_columnar / failure_summary_columnar) and
// brute-force folds.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/columnar.h"
#include "netsim/simtime.h"
#include "scenario/driver.h"
#include "util/flat_map.h"

namespace ddos::serve {

/// Leaderboard choice for TopK queries (one byte on the wire).
enum class TopKMetric : std::uint8_t {
  Attacks,      // telescope attack events per victim IP (cf. Table 5)
  PeakImpact,   // max Impact_on_RTT per NSSet (cf. Table 6)
  FailureRate,  // max joined-event failure rate per NSSet
};

/// Precomputed per-NSSet fold over its joined attack events.
struct NssetSummary {
  dns::NssetId nsset = dns::kInvalidNsset;
  std::uint32_t events = 0;          // joined NSSet-attack events
  std::uint64_t domains_hosted = 0;  // NSSet size
  double peak_impact = 0.0;          // max over events
  double max_failure_rate = 0.0;
  std::uint32_t ok = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t servfails = 0;
  netsim::DayIndex first_day = 0;    // of the earliest/latest attack start
  netsim::DayIndex last_day = 0;

  friend bool operator==(const NssetSummary&, const NssetSummary&) = default;
};

/// One point of an NSSet's daily sweep time series (from the stored
/// per-(NSSet, day) aggregates; the retention policy of the generating
/// run decides which days exist).
struct DayPoint {
  netsim::DayIndex day = 0;
  std::uint32_t measured = 0;
  double avg_rtt_ms = 0.0;
  double failure_rate = 0.0;

  friend bool operator==(const DayPoint&, const DayPoint&) = default;
};

/// PointLookup answer. `found` is true when the NSSet has any indexed
/// state (attack events or sweep series). The spans alias engine-owned
/// immutable arrays and stay valid for the engine's lifetime.
struct PointResult {
  bool found = false;
  NssetSummary summary;
  /// Row indices of this NSSet's joined events (the order of the run's
  /// joined vector, which is the store's "events" row order).
  std::span<const std::uint32_t> event_indices;
  /// Daily sweep series, ascending by day.
  std::span<const DayPoint> series;
};

/// One leaderboard row: `key` is a victim IP (Attacks) or NssetId
/// (PeakImpact / FailureRate); ties broken by ascending key.
struct TopEntry {
  std::uint64_t key = 0;
  double value = 0.0;

  friend bool operator==(const TopEntry&, const TopEntry&) = default;
};

/// WindowScan answer over joined events whose attack started in
/// [day_lo, day_hi] (inclusive, clamped to the indexed range). Tallies
/// use the batch thresholds: impaired/severe are peak_impact >=
/// core::kImpairedThreshold / kSevereThreshold, failure counts follow
/// core::failure_summary_columnar.
struct WindowScanResult {
  netsim::DayIndex day_lo = 0;
  netsim::DayIndex day_hi = -1;      // empty when day_hi < day_lo
  std::uint64_t events = 0;
  std::uint64_t events_with_failures = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t servfails = 0;
  std::uint64_t impaired_10x = 0;
  std::uint64_t severe_100x = 0;
  double max_peak_impact = 0.0;

  double failing_event_share() const {
    return events ? static_cast<double>(events_with_failures) / events : 0.0;
  }

  friend bool operator==(const WindowScanResult&,
                         const WindowScanResult&) = default;
};

/// One per-(NSSet, day) sweep aggregate as the series index keeps it.
struct NssetDayPoint {
  dns::NssetId nsset = 0;
  DayPoint point;
};

/// Telescope attack events against one victim IP.
struct VictimAttacks {
  std::uint32_t victim = 0;
  std::uint64_t attacks = 0;
};

/// Everything the index build reads. The spans are only read during
/// construction.
struct EngineColumns {
  core::EventFrame joined;
  std::vector<NssetDayPoint> series;  // any order; the build sorts it
  std::span<const VictimAttacks> attacks;  // ascending, unique victims
};

class QueryEngine {
 public:
  /// Build the indexes. Single-threaded, called once.
  explicit QueryEngine(EngineColumns columns);
  /// Lay a run's joined rows, sorted_daily() aggregates and stitched
  /// events out as EngineColumns and build from those.
  explicit QueryEngine(const scenario::RunArtifacts& run);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // ---- query API: const, lock-free, concurrently callable. ----

  /// O(1): one FlatMap probe, then a struct copy plus two span views.
  PointResult point_lookup(dns::NssetId nsset) const;

  /// Copies the first min(k, universe) rows of the requested leaderboard
  /// into `out` (cleared first — caller-owned scratch, reused across
  /// calls). Returns the number of rows written.
  std::size_t top_k(TopKMetric metric, std::size_t k,
                    std::vector<TopEntry>& out) const;

  /// O(day_hi - day_lo): folds the dense per-day aggregates of the range.
  WindowScanResult window_scan(netsim::DayIndex day_lo,
                               netsim::DayIndex day_hi) const;

  // ---- introspection for drivers and tests. ----

  /// The serving key universe: every NSSet with indexed state, ascending.
  /// Load drivers map key-chooser indices through this span.
  std::span<const dns::NssetId> keys() const { return keys_; }

  /// Indexed day range of the window index ([0, -1] when no events).
  netsim::DayIndex day_min() const { return day_min_; }
  netsim::DayIndex day_max() const { return day_max_; }

  std::size_t nsset_count() const { return summaries_.size(); }
  std::size_t series_points() const { return day_points_.size(); }
  std::size_t leaderboard_entries() const {
    return top_attacks_.size() + top_impact_.size() + top_failure_.size();
  }

 private:
  struct IndexRange {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };
  struct DayAgg {
    std::uint32_t events = 0;
    std::uint32_t events_with_failures = 0;
    std::uint32_t timeouts = 0;
    std::uint32_t servfails = 0;
    std::uint32_t impaired_10x = 0;
    std::uint32_t severe_100x = 0;
    double max_peak_impact = 0.0;
  };

  void build(EngineColumns& columns);
  void build_nsset_index(const core::EventFrame& joined);
  void build_series_index(std::vector<NssetDayPoint>& rows);
  void build_leaderboards(std::span<const VictimAttacks> attacks);
  void build_window_index(const core::EventFrame& joined);

  // nsset -> slot into summaries_/event_ranges_/series_ranges_.
  util::FlatMap<dns::NssetId, std::uint32_t> slot_of_;
  std::vector<NssetSummary> summaries_;
  std::vector<IndexRange> event_ranges_;   // into event_index_
  std::vector<std::uint32_t> event_index_; // joined indices grouped by nsset
  std::vector<IndexRange> series_ranges_;  // into day_points_
  std::vector<DayPoint> day_points_;       // grouped by nsset, day ascending
  std::vector<dns::NssetId> keys_;         // ascending serving universe

  std::vector<TopEntry> top_attacks_;  // (victim ip, events) desc
  std::vector<TopEntry> top_impact_;   // (nsset, max peak_impact) desc
  std::vector<TopEntry> top_failure_;  // (nsset, max failure_rate) desc

  netsim::DayIndex day_min_ = 0;
  netsim::DayIndex day_max_ = -1;
  std::vector<DayAgg> by_day_;  // dense, index = day - day_min_
};

/// The serving load path, shared by `serve --store` and
/// net::EngineHandle::load: map the save_run store at `store_path`,
/// CRC-check every block, read only the columns EngineColumns needs,
/// check the feed, stitched-event and joined counts against the meta,
/// and build the engine. Throws store::StoreError naming the path on any
/// defect.
std::unique_ptr<QueryEngine> load_engine(const std::string& store_path);

}  // namespace ddos::serve
