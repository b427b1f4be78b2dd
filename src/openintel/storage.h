// MeasurementStore — streaming aggregation of sweeper output into the two
// granularities the paper's method needs (§4.1):
//
//   * per-(NSSet, day) aggregates — the previous-day RTT baseline in the
//     Impact_on_RTT denominator, and the per-day nameserver-seen sets used
//     by the previous-day join (§4.2);
//   * per-(NSSet, 5-minute-window) aggregates — domains measured, mean /
//     min / max RTT, and error counts (timeout, SERVFAIL), the numerator.
//
// Raw measurements are never retained: a 17-month sweep of a few hundred
// thousand domains produces ~10^8 records, so the store folds each into
// O(1) state on ingest. The fold tables are open-addressing FlatMaps — the
// fold is the single hottest call in the pipeline, and flat probing plus
// the batched ingest below keep it at memory bandwidth. The run executor
// bounds memory by moving every day behind the join watermark out with
// `retire_days_below`, which erases whole days from the fold tables.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "openintel/measurement.h"
#include "util/flat_map.h"
#include "util/radix.h"
#include "util/stats.h"

namespace ddos::openintel {

struct Aggregate {
  std::uint32_t measured = 0;   // resolutions attempted
  std::uint32_t ok = 0;
  std::uint32_t timeout = 0;
  std::uint32_t servfail = 0;
  util::RunningStats rtt;       // over answered queries (OK + SERVFAIL)

  std::uint32_t errors() const { return timeout + servfail; }
  double failure_rate() const {
    return measured ? static_cast<double>(errors()) / measured : 0.0;
  }
  double avg_rtt() const { return rtt.mean(); }

  void fold(const Measurement& m);
  void merge(const Aggregate& other);
};

/// Retention policy accepting everything — the default `add_batch` hook.
/// Policies are plain structs resolved at compile time, so the fold loop
/// carries no type-erased std::function calls (the longitudinal driver
/// passes a key-set-backed policy; see scenario/driver.cpp).
struct KeepAll {
  static constexpr bool daily(dns::NssetId, netsim::DayIndex) { return true; }
  static constexpr bool window(dns::NssetId, netsim::WindowIndex) {
    return true;
  }
  static constexpr bool ns_seen(netsim::IPv4Addr, netsim::DayIndex) {
    return true;
  }
};

class MeasurementStore {
 public:
  /// Ingest one measurement (updates daily, window and seen-NS state);
  /// keeps everything. Retention is add_batch's `keep` policy.
  void add(const Measurement& m);

  /// Batched ingest: fold a whole span with one table probe per distinct
  /// key, issued in table-slot order. Measurements are grouped with a
  /// stable radix sort on the hash prefix of their (nsset, day) /
  /// (nsset, window) key — see fold_runs for why that both deduplicates
  /// probes and makes them sequential — and within a key the fold order is
  /// the arrival order, so the resulting state is bit-for-bit identical to
  /// per-measurement add() under KeepAll. `keep` is a compile-time
  /// retention policy (KeepAll, or a key-set-backed struct such as
  /// scenario::PlanRetention) and the only retention mechanism: add()
  /// keeps everything.
  ///
  /// Retention placement follows key cardinality. Daily keys repeat
  /// heavily inside a batch (every domain of an nsset swept that day
  /// shares one key), so the daily policy is evaluated once per key-run —
  /// the policies are pure functions of the key — instead of once per
  /// measurement. Window and (ns, day) keys are near-distinct within a
  /// batch, so per-run evaluation would buy nothing; those filters run
  /// inline while building the scratch, and only the kept subset is
  /// sorted.
  template <typename Keep = KeepAll>
  void add_batch(std::span<const Measurement> batch, const Keep& keep = {}) {
    total_ += batch.size();

    // --- daily table: group all, retention-check per run, fold kept runs.
    keyed_scratch_.clear();
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      const Measurement& m = batch[i];
      keyed_scratch_.emplace_back(
          daily_.hash_of(day_key(m.nsset, m.time.day())) >> 32, i);
    }
    fold_runs(
        daily_, batch,
        [](const Measurement& m) { return day_key(m.nsset, m.time.day()); },
        [&keep](const Measurement& m) {
          return keep.daily(m.nsset, m.time.day());
        });

    // --- window table: filter inline, group the kept subset.
    keyed_scratch_.clear();
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      const Measurement& m = batch[i];
      const netsim::WindowIndex window = m.time.window();
      if (keep.window(m.nsset, window)) {
        keyed_scratch_.emplace_back(
            window_.hash_of(window_key(m.nsset, window)) >> 32, i);
      }
    }
    fold_runs(
        window_, batch,
        [](const Measurement& m) {
          return window_key(m.nsset, m.time.window());
        },
        [](const Measurement&) constexpr { return true; });

    // --- seen-NS sets (content-only, so only the first measurement of
    //     each kept (ns, day) run has to touch the set at all).
    keyed_scratch_.clear();
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      const Measurement& m = batch[i];
      const netsim::DayIndex day = m.time.day();
      if (m.answered() && keep.ns_seen(m.chosen_ns, day)) {
        keyed_scratch_.emplace_back(
            (static_cast<std::uint64_t>(m.chosen_ns.value()) << 32) |
                static_cast<std::uint32_t>(day),
            i);
      }
    }
    util::radix_sort_keyed(keyed_scratch_, radix_scratch_);
    std::uint64_t run_key = 0;
    bool have_run = false;
    for (const auto& [key, idx] : keyed_scratch_) {
      if (have_run && key == run_key) continue;
      have_run = true;
      run_key = key;
      const Measurement& m = batch[idx];
      ns_seen_[m.time.day()].insert(m.chosen_ns);
    }
  }

  /// Daily aggregate for (nsset, day); nullptr when nothing measured.
  const Aggregate* daily(dns::NssetId nsset, netsim::DayIndex day) const;
  /// Convenience: previous-day average RTT, 0.0 when absent.
  double daily_avg_rtt(dns::NssetId nsset, netsim::DayIndex day) const;

  /// Window aggregate for (nsset, window); nullptr when nothing measured,
  /// rejected by the window retention policy, or retired.
  const Aggregate* window(dns::NssetId nsset,
                          netsim::WindowIndex window) const;

  /// Was `ns` successfully queried (answered at least once as the chosen
  /// server) on `day`? Drives the previous-day nameserver join.
  bool ns_seen_on(netsim::IPv4Addr ns, netsim::DayIndex day) const;

  std::size_t window_entries() const { return window_.size(); }
  std::size_t daily_entries() const { return daily_.size(); }
  std::uint64_t total_measurements() const { return total_; }

  // ---- persistence hooks (the DRS dataset store). Snapshots are sorted
  //      by key so the serialised bytes are deterministic; restore_*
  //      applies no retention (the generating run already did).

  /// (key, aggregate) pairs of the daily map, ascending by key.
  std::vector<std::pair<std::uint64_t, Aggregate>> sorted_daily() const;
  /// (key, aggregate) pairs of the window map, ascending by key.
  std::vector<std::pair<std::uint64_t, Aggregate>> sorted_window() const;
  /// (day, ns-ip) pairs of the seen-NS sets, ascending by (day, ip).
  std::vector<std::pair<netsim::DayIndex, netsim::IPv4Addr>> sorted_ns_seen()
      const;

  /// Size the tables before a restore loop so loads probe into final-size
  /// tables instead of rehashing O(log n) times (counts come from the DRS
  /// column row counts).
  void reserve_daily(std::size_t additional) {
    daily_.reserve(daily_.size() + additional);
  }
  void reserve_window(std::size_t additional) {
    window_.reserve(window_.size() + additional);
  }

  void restore_daily(std::uint64_t key, const Aggregate& agg) {
    daily_.insert_or_assign(key, agg);
  }
  void restore_window(std::uint64_t key, const Aggregate& agg) {
    window_.insert_or_assign(key, agg);
  }
  void restore_ns_seen(netsim::DayIndex day, netsim::IPv4Addr ns) {
    ns_seen_[day].insert(ns);
  }
  /// Restore the add() counter (a loaded store never saw the adds).
  void set_total_measurements(std::uint64_t total) { total_ = total; }

  /// Public key builders so persistence can decompose/rebuild map keys.
  static std::uint64_t make_day_key(dns::NssetId nsset,
                                    netsim::DayIndex day) {
    return day_key(nsset, day);
  }
  static std::uint64_t make_window_key(dns::NssetId nsset,
                                       netsim::WindowIndex window) {
    return window_key(nsset, window);
  }
  static dns::NssetId key_nsset(std::uint64_t key) {
    return static_cast<dns::NssetId>(static_cast<std::uint32_t>(key));
  }
  static netsim::DayIndex day_key_day(std::uint64_t key) {
    return static_cast<netsim::DayIndex>(
               static_cast<std::uint32_t>(key >> 32)) -
           kDayBias;
  }
  static netsim::WindowIndex window_key_window(std::uint64_t key) {
    return static_cast<netsim::WindowIndex>(
               static_cast<std::uint32_t>(key >> 32)) -
           kDayBias * netsim::kWindowsPerDay;
  }

  /// Sorted rows of every day strictly below `day`, extracted for the
  /// streaming pipeline's epoch retirement (scenario driver). Because the
  /// map keys are time-major, each retired chunk — and the concatenation
  /// of chunks across ascending retire calls — is in the same ascending
  /// key order that sorted_daily()/sorted_window()/sorted_ns_seen() would
  /// produce on a never-evicted store, which is what keeps the streamed
  /// DRS file byte-identical to the materialized one.
  struct RetiredState {
    std::vector<std::pair<std::uint64_t, Aggregate>> daily;
    std::vector<std::pair<std::uint64_t, Aggregate>> window;
    std::vector<std::pair<netsim::DayIndex, netsim::IPv4Addr>> ns_seen;
  };
  RetiredState retire_days_below(netsim::DayIndex day);

 private:
  // Map keys are time-major — (biased time) << 32 | nsset — so that
  // ascending key order is ascending day/window order and day-window
  // eviction can peel a sorted prefix. The bias keeps negative indices
  // (the day −1 pre-study baseline) ordered under the unsigned cast;
  // valid days are (−kDayBias, 2^32 − kDayBias), far beyond any timeline.
  static constexpr netsim::DayIndex kDayBias = netsim::DayIndex{1} << 20;

  static std::uint64_t day_key(dns::NssetId nsset, netsim::DayIndex day) {
    return (static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(day + kDayBias))
            << 32) |
           static_cast<std::uint64_t>(nsset);
  }
  static std::uint64_t window_key(dns::NssetId nsset,
                                  netsim::WindowIndex window) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                window + kDayBias * netsim::kWindowsPerDay))
            << 32) |
           static_cast<std::uint64_t>(nsset);
  }

  /// Fold the scratch's (hash-prefix, index) pairs into `table`, one
  /// try_emplace per key-run. The scratch is sorted by hash prefix — the
  /// top 32 bits of the key's own table hash — which has two payoffs:
  ///
  ///   * equal keys are adjacent (equal key ⇒ equal hash), so each
  ///     distinct key costs one probe and one retention check;
  ///   * the table places entries by hash high bits, so probing in
  ///     hash-prefix order walks the slot array monotonically — sequential
  ///     memory traffic instead of a random hop per key when the table
  ///     outgrows cache.
  ///
  /// The sort is stable, so within a key the indices stay in batch order
  /// and the fold sequence matches per-measurement add() bit for bit.
  /// Distinct keys sharing a 32-bit hash prefix may interleave; the
  /// key-change test below just re-probes at each boundary, preserving
  /// order (the policies are pure, so re-evaluating keep is harmless).
  /// `key_fn` recomputes a measurement's table key (the scratch holds the
  /// hash, not the key); `keep_run` is the retention policy, evaluated at
  /// run boundaries only. The slot pointer is safe across a run:
  /// try_emplace may rehash, but only at a run boundary, and the pointer
  /// is re-fetched there.
  template <typename KeyFn, typename KeepRun>
  void fold_runs(util::FlatMap<std::uint64_t, Aggregate>& table,
                 std::span<const Measurement> batch, const KeyFn& key_fn,
                 const KeepRun& keep_run) {
    if (keyed_scratch_.empty()) return;
    util::radix_sort_keyed(keyed_scratch_, radix_scratch_);
    Aggregate* slot = nullptr;
    std::uint64_t run_key = 0;
    bool have_run = false;
    for (const auto& [prefix, idx] : keyed_scratch_) {
      const std::uint64_t key = key_fn(batch[idx]);
      if (!have_run || key != run_key) {
        have_run = true;
        run_key = key;
        slot = keep_run(batch[idx]) ? table.try_emplace(key).first : nullptr;
      }
      if (slot) slot->fold(batch[idx]);
    }
  }

  util::FlatMap<std::uint64_t, Aggregate> daily_;
  util::FlatMap<std::uint64_t, Aggregate> window_;
  util::FlatMap<netsim::DayIndex, util::FlatSet<netsim::IPv4Addr>> ns_seen_;
  std::uint64_t total_ = 0;
  // Batch-ingest scratch, reused across add_batch calls.
  std::vector<util::KeyedIndex> keyed_scratch_;
  std::vector<util::KeyedIndex> radix_scratch_;
};

}  // namespace ddos::openintel
