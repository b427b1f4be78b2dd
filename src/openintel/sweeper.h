// Daily sweeper — the OpenINTEL measurement loop (§3.2): every registered
// domain is queried once per day via the agnostic resolver; the query's
// 5-minute window within the day is a stable pseudo-random function of
// (domain, day), spreading platform load across the day exactly like the
// production system does.
//
// Everything is deterministic in the seed: the same (registry, schedule,
// seed) triple reproduces the same seventeen months of measurements.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "attack/schedule.h"
#include "exec/parallel.h"
#include "dns/load_model.h"
#include "dns/registry.h"
#include "dns/resolver.h"
#include "openintel/measurement.h"

namespace ddos::openintel {

struct SweeperParams {
  dns::ResolverParams resolver;
  dns::LoadModelParams model;
  std::uint64_t seed = 1;
};

class Sweeper {
 public:
  Sweeper(const dns::DnsRegistry& registry,
          const attack::AttackSchedule& schedule, SweeperParams params);

  /// The window-of-day in which `domain` is measured on `day` (stable).
  netsim::SimTime measurement_time(dns::DomainId domain,
                                   netsim::DayIndex day) const;

  /// Perform one measurement of `domain` at time `t` under the schedule's
  /// loads. Deterministic in (seed, domain, t).
  Measurement measure(dns::DomainId domain, netsim::SimTime t) const;

  /// Sweep one calendar day; invokes `sink(const Measurement&)` once per
  /// domain in id order.
  template <typename Sink>
  void sweep_day(netsim::DayIndex day, Sink&& sink) const {
    for (dns::DomainId d = registry_.first_domain(); d < registry_.end_domain();
         ++d) {
      sink(measure(d, measurement_time(d, day)));
    }
  }

  /// Sweep only a subset of domains for one day — the sparse-sweep path of
  /// the longitudinal driver, which skips domains whose measurements no
  /// later analysis can consume. Identical to sweep_day for the retained
  /// domains because each measurement's time and randomness depend only on
  /// (seed, domain, day). Shards `domains` over `pool` workers; the sink
  /// receives each shard's measurements as one contiguous span on the
  /// calling thread, in exact domain order, so the output is bit-identical
  /// for any thread count and the store can fold each span with its
  /// batched, group-by-key ingest.
  template <typename BatchSink>
  void sweep_domains_batched(netsim::DayIndex day,
                             std::span<const dns::DomainId> domains,
                             exec::WorkerPool& pool, BatchSink&& sink) const {
    exec::RegionOptions opts;
    opts.label = "sweep.domains";
    opts.pool = &pool;
    exec::parallel_map_reduce(
        domains.size(), opts, std::size_t{0},
        [&](const exec::ShardRange& range) {
          std::vector<Measurement> out;
          out.reserve(range.size());
          for (std::size_t i = range.begin; i < range.end; ++i) {
            const dns::DomainId d = domains[i];
            out.push_back(measure(d, measurement_time(d, day)));
          }
          return out;
        },
        [&](std::size_t& total, std::vector<Measurement>&& shard) {
          sink(std::span<const Measurement>(shard));
          total += shard.size();
        });
  }

  /// Measure one domain repeatedly at a fixed time (probe bursts for the
  /// reactive platform); attempt index decorrelates the randomness.
  Measurement measure_with_salt(dns::DomainId domain, netsim::SimTime t,
                                std::uint64_t salt) const;

  /// NS-exhaustive measurement (§9 future work): query *every* nameserver
  /// of the domain individually instead of unbound's single agnostic pick.
  /// This is what "will provide a more effective indication of whether and
  /// how end users experience resolution failure" — per-server behaviour
  /// becomes observable instead of being averaged away.
  struct NsOutcome {
    netsim::IPv4Addr ns;
    dns::ResponseStatus status = dns::ResponseStatus::Timeout;
    double rtt_ms = 0.0;  // valid when answered
  };
  std::vector<NsOutcome> measure_exhaustive(dns::DomainId domain,
                                            netsim::SimTime t) const;

  const dns::DnsRegistry& registry() const { return registry_; }
  const SweeperParams& params() const { return params_; }

 private:
  const dns::DnsRegistry& registry_;
  const attack::AttackSchedule& schedule_;
  SweeperParams params_;
  dns::AgnosticResolver resolver_;
};

}  // namespace ddos::openintel
