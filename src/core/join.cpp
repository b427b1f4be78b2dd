#include "core/join.h"

#include <algorithm>
#include <iterator>

#include "core/impact.h"
#include "exec/parallel.h"
#include "obs/obs.h"

namespace ddos::core {

JoinPipeline::JoinPipeline(const dns::DnsRegistry& registry,
                           const openintel::MeasurementStore& store,
                           const ResilienceClassifier& classifier,
                           JoinParams params)
    : registry_(registry),
      store_(store),
      classifier_(classifier),
      params_(params) {}

JoinPipeline::PairOutcome JoinPipeline::build_event(
    const telescope::RSDoSEvent& ev, dns::NssetId nsset,
    NssetAttackEvent& out, BaselineCache* baselines) const {
  const netsim::DayIndex day_before = ev.start_time().day() - 1;
  double baseline;
  if (baselines) {
    const auto [slot, inserted] = baselines->try_emplace(
        openintel::MeasurementStore::make_day_key(nsset, day_before));
    if (inserted) *slot = store_.daily_avg_rtt(nsset, day_before);
    baseline = *slot;
  } else {
    baseline = store_.daily_avg_rtt(nsset, day_before);
  }

  openintel::Aggregate total;
  double peak_impact = 0.0;
  double impact_weighted_sum = 0.0;
  std::uint64_t impact_weight = 0;
  for (netsim::WindowIndex w = ev.start_window; w <= ev.end_window; ++w) {
    const openintel::Aggregate* agg = store_.window(nsset, w);
    if (!agg) continue;
    total.merge(*agg);
    if (baseline > 0.0) {
      const double impact = impact_on_rtt(*agg, baseline);
      if (impact > 0.0) {
        peak_impact = std::max(peak_impact, impact);
        impact_weighted_sum += impact * agg->measured;
        impact_weight += agg->measured;
      }
    }
  }

  if (total.measured < params_.min_measured_domains) {
    return PairOutcome::BelowFloor;
  }
  if (baseline <= 0.0) return PairOutcome::NoBaseline;

  out.rsdos = ev;
  out.nsset = nsset;
  out.domains_hosted = registry_.domains_of_nsset(nsset).size();
  out.domains_measured = total.measured;
  out.baseline_rtt_ms = baseline;
  out.peak_impact = peak_impact;
  out.mean_impact =
      impact_weight ? impact_weighted_sum / static_cast<double>(impact_weight)
                    : 0.0;
  out.ok = total.ok;
  out.timeouts = total.timeout;
  out.servfails = total.servfail;
  out.failure_rate = total.failure_rate();
  out.resilience = classifier_.classify(nsset, ev.start_time().day());
  return PairOutcome::Joined;
}

std::vector<NssetAttackEvent> merge_concurrent_events(
    std::vector<NssetAttackEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const NssetAttackEvent& a, const NssetAttackEvent& b) {
              if (a.nsset != b.nsset) return a.nsset < b.nsset;
              return a.rsdos.start_window < b.rsdos.start_window;
            });
  std::vector<NssetAttackEvent> out;
  for (auto& ev : events) {
    if (!out.empty() && out.back().nsset == ev.nsset &&
        ev.rsdos.start_window <= out.back().rsdos.end_window) {
      NssetAttackEvent& merged = out.back();
      merged.rsdos.end_window =
          std::max(merged.rsdos.end_window, ev.rsdos.end_window);
      merged.rsdos.max_ppm = std::max(merged.rsdos.max_ppm, ev.rsdos.max_ppm);
      merged.rsdos.total_packets += ev.rsdos.total_packets;
      merged.peak_impact = std::max(merged.peak_impact, ev.peak_impact);
      merged.mean_impact = std::max(merged.mean_impact, ev.mean_impact);
      // Keep the widest constituent's measurement tallies: the windows of
      // concurrent events overlap, so summing would double count.
      if (ev.domains_measured > merged.domains_measured) {
        merged.domains_measured = ev.domains_measured;
        merged.ok = ev.ok;
        merged.timeouts = ev.timeouts;
        merged.servfails = ev.servfails;
        merged.failure_rate = ev.failure_rate;
      }
      continue;
    }
    out.push_back(std::move(ev));
  }
  return out;
}

void JoinPipeline::join_event(const telescope::RSDoSEvent& ev,
                              std::vector<NssetAttackEvent>& out,
                              JoinStats& stats,
                              BaselineCache* baselines) const {
  if (registry_.is_open_resolver(ev.victim)) {
    ++stats.open_resolver_filtered;
    return;
  }
  if (!registry_.is_ns_ip(ev.victim)) {
    ++stats.non_dns;
    return;
  }
  ++stats.dns_events;

  const netsim::DayIndex day_before = ev.start_time().day() - 1;
  if (!store_.ns_seen_on(ev.victim, day_before)) {
    // The previous-day join (§4.2): a server never successfully queried
    // the day before cannot be mapped to hosted domains.
    ++stats.not_seen_day_before;
    return;
  }

  for (const dns::NssetId nsset : registry_.nssets_containing(ev.victim)) {
    NssetAttackEvent nae;
    const PairOutcome outcome = build_event(ev, nsset, nae, baselines);
    if (outcome == PairOutcome::Joined) {
      out.push_back(std::move(nae));
      ++stats.joined;
    } else if (outcome == PairOutcome::BelowFloor) {
      ++stats.below_measurement_floor;
    } else {
      ++stats.no_baseline;
    }
  }
}

std::vector<NssetAttackEvent> JoinPipeline::finalize(
    std::vector<NssetAttackEvent> out, JoinStats stats) {
  if (params_.merge_concurrent) {
    out = merge_concurrent_events(std::move(out));
    stats.joined = out.size();
  }
  stats_ = stats;
  if (obs::Observer* o = obs::Observer::installed()) {
    obs::PipelineMetrics& p = o->pipeline;
    p.join_events_in.inc(stats_.total_events);
    p.join_events_out.inc(stats_.joined);
    p.join_open_resolver_filtered.inc(stats_.open_resolver_filtered);
    p.join_non_dns.inc(stats_.non_dns);
    p.join_not_seen_day_before.inc(stats_.not_seen_day_before);
    p.join_below_floor.inc(stats_.below_measurement_floor);
    p.join_no_baseline.inc(stats_.no_baseline);
  }
  return out;
}

std::vector<NssetAttackEvent> JoinPipeline::run(
    const std::vector<telescope::RSDoSEvent>& events) {
  obs::ScopedSpan span(obs::installed_tracer(), "join.run");
  span.set_items(events.size());
  std::vector<NssetAttackEvent> out;
  JoinStats stats;
  stats.total_events = events.size();

  // Per-event dispositions are independent const reads of the registry,
  // store, and classifier, so events shard across the pool; the ordered
  // reduction below re-assembles output and stats in event order.
  struct ShardOut {
    std::vector<NssetAttackEvent> joined;
    JoinStats stats;
  };
  exec::RegionOptions opts;
  opts.label = "join.events";
  exec::parallel_map_reduce(
      events.size(), opts, 0,
      [&](const exec::ShardRange& range) {
        ShardOut shard;
        // Most events fail the victim classification, so the range size is
        // a comfortable upper bound that spares push_back regrowth.
        shard.joined.reserve(range.size());
        BaselineCache baselines;
        for (std::size_t i = range.begin; i < range.end; ++i) {
          join_event(events[i], shard.joined, shard.stats, &baselines);
        }
        return shard;
      },
      [&](int&, ShardOut&& shard) {
        out.insert(out.end(),
                   std::make_move_iterator(shard.joined.begin()),
                   std::make_move_iterator(shard.joined.end()));
        stats += shard.stats;
      });
  return finalize(std::move(out), stats);
}

}  // namespace ddos::core
