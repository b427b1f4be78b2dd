// The data-join pipeline (Fig. 1, §4.2) — the paper's methodological
// contribution. Steps, per RSDoS event:
//
//   1. classify the victim: open resolver (filtered, Table 5 discussion),
//      nameserver IP, or non-DNS;
//   2. previous-day join: the victim must have been a nameserver
//      successfully queried on the day before the attack (using the day
//      before minimises missing servers already unreachable under attack);
//   3. expand to NSSets containing the victim, then to hosted domains;
//   4. pull the per-NSSet 5-minute aggregates across the attack windows,
//      compute Impact_on_RTT against the previous-day baseline and the
//      failure rates, keeping only NSSet-events with at least
//      `min_measured_domains` measurements (§6.3's >=5 filter);
//   5. attach resilience metadata (anycast class, AS/prefix diversity).
#pragma once

#include <cstdint>
#include <vector>

#include "attack/attack.h"
#include "core/resilience.h"
#include "dns/registry.h"
#include "openintel/storage.h"
#include "telescope/rsdos.h"
#include "util/flat_map.h"

namespace ddos::core {

/// One NSSet affected by one RSDoS event — the paper's unit of impact
/// analysis (12,691 of these in the original study, §6.3).
struct NssetAttackEvent {
  telescope::RSDoSEvent rsdos;
  dns::NssetId nsset = dns::kInvalidNsset;

  std::uint64_t domains_hosted = 0;   // NSSet size (hosting magnitude axes)
  std::uint32_t domains_measured = 0; // measurements inside attack windows

  double baseline_rtt_ms = 0.0;  // previous-day NSSet average
  double peak_impact = 0.0;      // max over windows of Impact_on_RTT
  double mean_impact = 0.0;      // measurement-weighted mean impact

  std::uint32_t ok = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t servfails = 0;
  double failure_rate = 0.0;     // (timeouts+servfails)/measured

  ResilienceProfile resilience;

  bool any_failure() const { return timeouts + servfails > 0; }
  bool complete_failure() const {
    return domains_measured > 0 && ok == 0;
  }
  std::int64_t duration_s() const { return rsdos.duration_s(); }

  /// Field-exact equality — the `generate --store` / `analyze --store`
  /// round trip and the re-join assertion compare events bit-for-bit.
  friend bool operator==(const NssetAttackEvent&,
                         const NssetAttackEvent&) = default;
};

/// Join-level accounting: how each telescope event was disposed of.
struct JoinStats {
  std::uint64_t total_events = 0;
  std::uint64_t open_resolver_filtered = 0;
  std::uint64_t non_dns = 0;            // victim not a nameserver IP
  std::uint64_t not_seen_day_before = 0;
  std::uint64_t below_measurement_floor = 0;  // <5 measured domains
  std::uint64_t no_baseline = 0;
  std::uint64_t joined = 0;             // NSSet-events produced
  std::uint64_t dns_events = 0;         // events whose victim is an NS IP

  friend bool operator==(const JoinStats&, const JoinStats&) = default;
};

struct JoinParams {
  std::uint32_t min_measured_domains = 5;  // §6.3 noise floor
  /// Also treat attacks on the /24 containing a nameserver as DNS-infra
  /// attacks (§6: "either directly targeting nameserver IPs or targeting
  /// /24s that host nameservers"). Direct-IP matches only when false.
  bool match_slash24 = false;
  /// Merge NSSet-events whose telescope events overlap in time on the same
  /// NSSet (an attack hitting all three nameservers of a delegation is one
  /// "event of attack to a distinct NSSet", as §6.3 counts them).
  bool merge_concurrent = true;
};

/// Collapse events on the same NSSet with overlapping window ranges into
/// one (keeping the union of windows, the max ppm and the max impact; the
/// measured/failure tallies of the widest constituent).
std::vector<NssetAttackEvent> merge_concurrent_events(
    std::vector<NssetAttackEvent> events);

class JoinPipeline {
 public:
  JoinPipeline(const dns::DnsRegistry& registry,
               const openintel::MeasurementStore& store,
               const ResilienceClassifier& classifier, JoinParams params = {});

  /// Run the join over stitched telescope events.
  std::vector<NssetAttackEvent> run(
      const std::vector<telescope::RSDoSEvent>& events);

  const JoinStats& stats() const { return stats_; }
  const JoinParams& params() const { return params_; }

  /// Memo of previous-day baseline RTTs, keyed by the store's (nsset, day)
  /// key. run() keeps one per shard: overlapping telescope events on the
  /// same NSSet would otherwise re-probe daily_avg_rtt once per event.
  using BaselineCache = util::FlatMap<std::uint64_t, double>;

  /// The NSSet-level impact computation for one (event, nsset) pair;
  /// exposed for the reactive platform and tests. Returns false when the
  /// pair fails the measurement floor or baseline requirements. `baselines`
  /// (optional) memoises the previous-day RTT probe across calls.
  bool build_event(const telescope::RSDoSEvent& ev, dns::NssetId nsset,
                   NssetAttackEvent& out,
                   BaselineCache* baselines = nullptr) const;

  /// Dispose of ONE telescope event: classify the victim, previous-day
  /// join, expand to NSSets, build the NSSet-events. Appends produced
  /// events to `out` and bumps `stats` (total_events excepted — callers
  /// own that tally). This is the shard-loop body of run(), shared with
  /// the run executor so both paths run literally the same code.
  void join_event(const telescope::RSDoSEvent& ev,
                  std::vector<NssetAttackEvent>& out, JoinStats& stats,
                  BaselineCache* baselines = nullptr) const;

  /// Shared tail of run(): optional concurrent-event merge, final joined
  /// count, stats publication and observer metrics. The run executor
  /// assembles its event-ordered joined vector and summed stats, then
  /// calls this — so merge semantics and accounting cannot drift between
  /// the two paths.
  std::vector<NssetAttackEvent> finalize(std::vector<NssetAttackEvent> out,
                                         JoinStats stats);

 private:
  const dns::DnsRegistry& registry_;
  const openintel::MeasurementStore& store_;
  const ResilienceClassifier& classifier_;
  JoinParams params_;
  JoinStats stats_;
};

}  // namespace ddos::core
