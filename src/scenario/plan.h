// Sweep/shard planning — the "plan" stage of the plan/execute/compact
// pipeline. A longitudinal run is now three separable steps:
//
//   plan     derive_sweep_plan: the retention key sets and per-day domain
//            sets every analysis read needs, a pure function of
//            (world, stitched events);
//   execute  the run executor (driver.cpp): sweep the plan's days and
//            join the events — either the whole world in one process,
//            or one shard of a contiguous day partition (run_shard);
//   compact  store::merge_stores (store/merge.cpp): k-way merge the shard
//            stores into one DRS file byte-identical to the whole run's.
//
// The shard partition cuts the plan's day axis into `count` contiguous
// ranges, balanced by planned domain sweeps per day. It is deterministic:
// every shard process derives the identical plan from the identical
// config (world build, workload, telescope inference and the sweep are
// all pure functions of their seeds — no seed depends on process
// layout), so all shards agree on the cuts without coordinating.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netsim/simtime.h"
#include "obs/obs.h"
#include "scenario/world.h"
#include "telescope/rsdos.h"
#include "util/flat_map.h"

namespace ddos::scenario {

// Sweep/retention sets derived from the inferred events (the sparse sweep
// of driver.h's header comment). The retention key sets use their own
// id-major layout — (id << 32) | time — independent of the store's
// time-major map keys; they are membership sets, never sorted or
// range-scanned.
struct SweepPlan {
  util::FlatSet<std::uint64_t> daily_keys;    // (nsset, day)
  util::FlatSet<std::uint64_t> window_keys;   // (nsset, window)
  util::FlatSet<std::uint64_t> ns_seen_keys;  // (ip, day)
  std::map<netsim::DayIndex, util::FlatSet<dns::DomainId>> days;
  std::uint64_t domains_planned = 0;
};

SweepPlan derive_sweep_plan(const World& world,
                            const std::vector<telescope::RSDoSEvent>& events,
                            obs::Tracer* tracer, obs::Observer* observer);

// Key-set-backed retention, resolved at compile time in the batched fold
// loop (no std::function call per measurement — see
// MeasurementStore::add_batch).
struct PlanRetention {
  const util::FlatSet<std::uint64_t>& daily_keys;
  const util::FlatSet<std::uint64_t>& window_keys;
  const util::FlatSet<std::uint64_t>& ns_seen_keys;

  bool daily(dns::NssetId nsset, netsim::DayIndex day) const {
    return daily_keys.contains((static_cast<std::uint64_t>(nsset) << 32) |
                               static_cast<std::uint32_t>(day));
  }
  bool window(dns::NssetId nsset, netsim::WindowIndex w) const {
    return window_keys.contains((static_cast<std::uint64_t>(nsset) << 32) |
                                static_cast<std::uint32_t>(w));
  }
  bool ns_seen(netsim::IPv4Addr ip, netsim::DayIndex day) const {
    return ns_seen_keys.contains(
        (static_cast<std::uint64_t>(ip.value()) << 32) |
        static_cast<std::uint32_t>(day));
  }
};

// ---- shard partition (`generate --shard i/N`).

/// One shard of an N-way partition of the world. index is zero-based.
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// Parse "i/N". On failure returns nullopt and, when `error` is non-null,
/// fills it with a FlagParser-style diagnostic (starts with the flag
/// name, so the CLI prints "flag --" + error, like parse_mix).
std::optional<ShardSpec> parse_shard(std::string_view spec,
                                     std::string* error = nullptr);

/// The shard's owned day range [day_lo, day_hi). Outer shards carry
/// int64 min/max sentinels so ownership covers every representable day.
struct ShardBounds {
  netsim::DayIndex day_lo = 0;  // first owned day (inclusive)
  netsim::DayIndex day_hi = 0;  // first day past the range (exclusive)

  bool owns_day(netsim::DayIndex day) const {
    return day >= day_lo && day < day_hi;
  }
};

/// The `count + 1` day boundaries of the partition: cuts[i]..cuts[i+1] is
/// shard i's range. cuts[0] / cuts[count] are the int64 sentinels; the
/// interior cuts split the plan's days into contiguous runs balanced by
/// planned domain sweeps (each day's weight is its domain-set size), so
/// shards cost roughly the same even when attacks cluster. Deterministic:
/// a pure function of (plan, count).
std::vector<netsim::DayIndex> shard_day_cuts(const SweepPlan& plan,
                                             std::uint32_t count);

/// Bounds of one shard: {cuts[index], cuts[index + 1]}.
ShardBounds shard_bounds(const SweepPlan& plan, const ShardSpec& spec);

/// The contiguous [begin, end) slice of `total` world-wide items — the
/// feed's ingest regions, the victims dataset's rows — that shard `spec`
/// persists (all of them for ShardSpec{0, 1}, a whole run). Both lists are
/// identical across shards, so slicing by index partitions them exactly;
/// concatenating the slices in shard order reproduces the whole list.
std::pair<std::uint64_t, std::uint64_t> shard_slice(std::uint64_t total,
                                                    const ShardSpec& spec);

}  // namespace ddos::scenario
