#include "core/columnar.h"

#include <array>
#include <map>
#include <type_traits>
#include <utility>

#include "core/impact.h"
#include "exec/parallel.h"
#include "netsim/simtime.h"
#include "obs/obs.h"
#include "util/stats.h"

namespace ddos::core {

std::int64_t EventFrame::duration_s(std::size_t i) const {
  // Mirrors RSDoSEvent::duration_s over the stored u64 window columns.
  const auto start = static_cast<std::int64_t>(start_window[i]);
  const auto end = static_cast<std::int64_t>(end_window[i]);
  return (end - start + 1) * netsim::kSecondsPerWindow;
}

OwnedEventFrame::OwnedEventFrame(const std::vector<NssetAttackEvent>& events) {
  using E = NssetAttackEvent;
  const auto column = [&events](auto& columns, auto get) {
    auto& col = columns.emplace_back();
    col.reserve(events.size());
    for (const E& e : events) {
      col.push_back(static_cast<typename std::decay_t<decltype(col)>::value_type>(
          get(e)));
    }
    return std::span(std::as_const(col));
  };
  const auto u64 = [&](auto get) { return column(u64_, get); };
  const auto f64 = [&](auto get) { return column(f64_, get); };
  const auto u8 = [&](auto get) { return column(u8_, get); };

  EventFrame& f = frame_;
  f.rows = events.size();
  f.victim = u64([](const E& e) { return e.rsdos.victim.value(); });
  f.start_window = u64([](const E& e) { return e.rsdos.start_window; });
  f.end_window = u64([](const E& e) { return e.rsdos.end_window; });
  f.max_ppm = f64([](const E& e) { return e.rsdos.max_ppm; });
  f.total_packets = u64([](const E& e) { return e.rsdos.total_packets; });
  f.max_slash16 = u64([](const E& e) { return e.rsdos.max_slash16; });
  f.protocol = u8([](const E& e) { return e.rsdos.protocol; });
  f.first_port = u64([](const E& e) { return e.rsdos.first_port; });
  f.max_unique_ports =
      u64([](const E& e) { return e.rsdos.max_unique_ports; });
  f.nsset = u64([](const E& e) { return e.nsset; });
  f.domains_hosted = u64([](const E& e) { return e.domains_hosted; });
  f.domains_measured = u64([](const E& e) { return e.domains_measured; });
  f.baseline_rtt_ms = f64([](const E& e) { return e.baseline_rtt_ms; });
  f.peak_impact = f64([](const E& e) { return e.peak_impact; });
  f.mean_impact = f64([](const E& e) { return e.mean_impact; });
  f.ok = u64([](const E& e) { return e.ok; });
  f.timeouts = u64([](const E& e) { return e.timeouts; });
  f.servfails = u64([](const E& e) { return e.servfails; });
  f.failure_rate = f64([](const E& e) { return e.failure_rate; });
  f.anycast_class = u8([](const E& e) { return e.resilience.anycast_class; });
  f.distinct_asns = u64([](const E& e) { return e.resilience.distinct_asns; });
  f.distinct_slash24 =
      u64([](const E& e) { return e.resilience.distinct_slash24; });
  f.nameserver_count =
      u64([](const E& e) { return e.resilience.nameserver_count; });
  f.asn = u64([](const E& e) { return e.resilience.asn; });

  auto& starts = u64_.emplace_back();
  auto& lens = u64_.emplace_back();
  starts.reserve(events.size());
  lens.reserve(events.size());
  for (const E& e : events) {
    starts.push_back(org_bytes_.size());
    lens.push_back(e.resilience.org.size());
    org_bytes_ += e.resilience.org;
  }
  f.org.bytes = org_bytes_;
  f.org.starts = starts;
  f.org.lens = lens;
}

ImpactSummary impact_summary_columnar(const EventFrame& f) {
  obs::ScopedSpan span(obs::installed_tracer(), "columnar.impact_summary");
  span.set_items(f.rows);
  exec::RegionOptions opts;
  opts.label = "columnar.impact";
  return exec::parallel_map_reduce(
      f.rows, opts, ImpactSummary{},
      [&](const exec::ShardRange& r) {
        ImpactSummary s;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          ++s.events;
          if (f.peak_impact[i] >= kImpairedThreshold) ++s.impaired_10x;
          if (f.peak_impact[i] >= kSevereThreshold) ++s.severe_100x;
        }
        return s;
      },
      [](ImpactSummary& acc, ImpactSummary&& s) {
        acc.events += s.events;
        acc.impaired_10x += s.impaired_10x;
        acc.severe_100x += s.severe_100x;
      });
}

FailureSummary failure_summary_columnar(const EventFrame& f) {
  obs::ScopedSpan span(obs::installed_tracer(), "columnar.failure_summary");
  span.set_items(f.rows);
  exec::RegionOptions opts;
  opts.label = "columnar.failure";
  return exec::parallel_map_reduce(
      f.rows, opts, FailureSummary{},
      [&](const exec::ShardRange& r) {
        FailureSummary s;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          ++s.events;
          s.timeouts += f.timeouts[i];
          s.servfails += f.servfails[i];
          if (f.any_failure(i)) {
            ++s.events_with_failures;
            s.failed_event_ports.add(
                port_bucket(static_cast<std::uint16_t>(f.first_port[i])));
          }
        }
        return s;
      },
      [](FailureSummary& acc, FailureSummary&& s) {
        acc.events += s.events;
        acc.events_with_failures += s.events_with_failures;
        acc.timeouts += s.timeouts;
        acc.servfails += s.servfails;
        acc.failed_event_ports.merge(s.failed_event_ports);
      });
}

CorrelationSeries duration_impact_series_columnar(const EventFrame& f) {
  exec::RegionOptions opts;
  opts.label = "columnar.duration_series";
  // Per-shard (x, y) pairs concatenate in shard order == event order, so
  // the correlation inputs match the serial row loop exactly.
  CorrelationSeries s = exec::parallel_map_reduce(
      f.rows, opts, CorrelationSeries{},
      [&](const exec::ShardRange& r) {
        CorrelationSeries part;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          if (f.peak_impact[i] <= 0.0) continue;
          part.x.push_back(static_cast<double>(f.duration_s(i)));
          part.y.push_back(f.peak_impact[i]);
        }
        return part;
      },
      [](CorrelationSeries& acc, CorrelationSeries&& part) {
        acc.x.insert(acc.x.end(), part.x.begin(), part.x.end());
        acc.y.insert(acc.y.end(), part.y.begin(), part.y.end());
      });
  s.pearson = util::pearson(s.x, s.y);
  s.spearman = util::spearman(s.x, s.y);
  return s;
}

namespace {

// Shard partial for one anycast group: impacts in event order plus the
// integer tallies summarize_group accumulates alongside.
struct GroupPartial {
  std::vector<double> impacts;
  std::uint64_t impaired_10x = 0;
  std::uint64_t severe_100x = 0;
  std::uint64_t events_with_failures = 0;
  std::uint64_t complete_failures = 0;
};

}  // namespace

std::vector<GroupImpact> impact_by_anycast_columnar(const EventFrame& f) {
  obs::ScopedSpan span(obs::installed_tracer(), "columnar.impact_by_anycast");
  span.set_items(f.rows);
  // Group order is the AnycastClass enum order, matching the row path's
  // {"unicast", "partial-anycast", "anycast"} display order.
  constexpr std::size_t kGroups = 3;
  exec::RegionOptions opts;
  opts.label = "columnar.anycast_groups";
  using Partials = std::array<GroupPartial, kGroups>;
  Partials merged = exec::parallel_map_reduce(
      f.rows, opts, Partials{},
      [&](const exec::ShardRange& r) {
        Partials part;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const std::size_t g = f.anycast_class[i];
          if (g >= kGroups) continue;  // row path drops unknown classes too
          GroupPartial& p = part[g];
          p.impacts.push_back(f.peak_impact[i]);
          if (f.peak_impact[i] >= kImpairedThreshold) ++p.impaired_10x;
          if (f.peak_impact[i] >= kSevereThreshold) ++p.severe_100x;
          if (f.any_failure(i)) ++p.events_with_failures;
          if (f.complete_failure(i)) ++p.complete_failures;
        }
        return part;
      },
      [](Partials& acc, Partials&& part) {
        for (std::size_t g = 0; g < kGroups; ++g) {
          acc[g].impacts.insert(acc[g].impacts.end(), part[g].impacts.begin(),
                                part[g].impacts.end());
          acc[g].impaired_10x += part[g].impaired_10x;
          acc[g].severe_100x += part[g].severe_100x;
          acc[g].events_with_failures += part[g].events_with_failures;
          acc[g].complete_failures += part[g].complete_failures;
        }
      });

  static constexpr const char* kNames[kGroups] = {"unicast", "partial-anycast",
                                                  "anycast"};
  std::vector<GroupImpact> out;
  out.reserve(kGroups);
  for (std::size_t g = 0; g < kGroups; ++g) {
    GroupImpact gi;
    gi.group = kNames[g];
    gi.events = merged[g].impacts.size();
    gi.impaired_10x = merged[g].impaired_10x;
    gi.severe_100x = merged[g].severe_100x;
    gi.events_with_failures = merged[g].events_with_failures;
    gi.complete_failures = merged[g].complete_failures;
    gi.median_impact = util::median(merged[g].impacts);
    gi.p90_impact = util::percentile(merged[g].impacts, 90.0);
    gi.max_impact = util::max_of(merged[g].impacts);
    out.push_back(std::move(gi));
  }
  return out;
}

namespace {

using MonthKey = std::pair<int, int>;  // (year, month)

struct MonthAcc {
  std::uint64_t events = 0;
  std::uint64_t impaired_10x = 0;
  std::uint64_t severe_100x = 0;
  std::uint64_t events_with_failures = 0;
};

MonthKey month_of_window(std::uint64_t start_window) {
  const netsim::SimTime t =
      netsim::window_start(static_cast<std::int64_t>(start_window));
  int year = 0, month = 0, dom = 0;
  netsim::day_to_ymd(t.day(), year, month, dom);
  return {year, month};
}

std::vector<MonthlyJoinedRow> rows_of(
    const std::map<MonthKey, MonthAcc>& by_month) {
  std::vector<MonthlyJoinedRow> out;
  out.reserve(by_month.size());
  for (const auto& [key, acc] : by_month) {
    MonthlyJoinedRow row;
    row.year = key.first;
    row.month = key.second;
    row.events = acc.events;
    row.impaired_10x = acc.impaired_10x;
    row.severe_100x = acc.severe_100x;
    row.events_with_failures = acc.events_with_failures;
    out.push_back(row);
  }
  return out;
}

}  // namespace

std::vector<MonthlyJoinedRow> monthly_joined_summary_columnar(
    const EventFrame& f) {
  exec::RegionOptions opts;
  opts.label = "columnar.monthly";
  using Acc = std::map<MonthKey, MonthAcc>;
  Acc by_month = exec::parallel_map_reduce(
      f.rows, opts, Acc{},
      [&](const exec::ShardRange& r) {
        Acc part;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          MonthAcc& acc = part[month_of_window(f.start_window[i])];
          ++acc.events;
          if (f.peak_impact[i] >= kImpairedThreshold) ++acc.impaired_10x;
          if (f.peak_impact[i] >= kSevereThreshold) ++acc.severe_100x;
          if (f.any_failure(i)) ++acc.events_with_failures;
        }
        return part;
      },
      [](Acc& acc, Acc&& part) {
        for (const auto& [key, m] : part) {
          MonthAcc& a = acc[key];
          a.events += m.events;
          a.impaired_10x += m.impaired_10x;
          a.severe_100x += m.severe_100x;
          a.events_with_failures += m.events_with_failures;
        }
      });
  return rows_of(by_month);
}

std::vector<MonthlyJoinedRow> monthly_joined_summary(
    const std::vector<NssetAttackEvent>& events) {
  std::map<MonthKey, MonthAcc> by_month;
  for (const auto& ev : events) {
    MonthAcc& acc =
        by_month[month_of_window(static_cast<std::uint64_t>(
            ev.rsdos.start_window))];
    ++acc.events;
    if (ev.peak_impact >= kImpairedThreshold) ++acc.impaired_10x;
    if (ev.peak_impact >= kSevereThreshold) ++acc.severe_100x;
    if (ev.any_failure()) ++acc.events_with_failures;
  }
  return rows_of(by_month);
}

bool frame_equals_events(const EventFrame& f,
                         const std::vector<NssetAttackEvent>& events) {
  if (f.rows != events.size()) return false;
  for (std::size_t i = 0; i < f.rows; ++i) {
    const NssetAttackEvent& e = events[i];
    const bool same =
        f.victim[i] == e.rsdos.victim.value() &&
        f.start_window[i] ==
            static_cast<std::uint64_t>(e.rsdos.start_window) &&
        f.end_window[i] == static_cast<std::uint64_t>(e.rsdos.end_window) &&
        f.max_ppm[i] == e.rsdos.max_ppm &&
        f.total_packets[i] == e.rsdos.total_packets &&
        f.max_slash16[i] == e.rsdos.max_slash16 &&
        f.protocol[i] == static_cast<std::uint8_t>(e.rsdos.protocol) &&
        f.first_port[i] == e.rsdos.first_port &&
        f.max_unique_ports[i] == e.rsdos.max_unique_ports &&
        f.nsset[i] == e.nsset && f.domains_hosted[i] == e.domains_hosted &&
        f.domains_measured[i] == e.domains_measured &&
        f.baseline_rtt_ms[i] == e.baseline_rtt_ms &&
        f.peak_impact[i] == e.peak_impact &&
        f.mean_impact[i] == e.mean_impact && f.ok[i] == e.ok &&
        f.timeouts[i] == e.timeouts && f.servfails[i] == e.servfails &&
        f.failure_rate[i] == e.failure_rate &&
        f.anycast_class[i] ==
            static_cast<std::uint8_t>(e.resilience.anycast_class) &&
        f.distinct_asns[i] == e.resilience.distinct_asns &&
        f.distinct_slash24[i] == e.resilience.distinct_slash24 &&
        f.nameserver_count[i] == e.resilience.nameserver_count &&
        f.asn[i] == e.resilience.asn && f.org[i] == e.resilience.org;
    if (!same) return false;
  }
  return true;
}

}  // namespace ddos::core
