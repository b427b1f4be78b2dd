#include "core/columnar.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>
#include <utility>

#include "core/analysis.h"
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

namespace {

constexpr auto kUnicast =
    static_cast<std::uint8_t>(anycast::AnycastClass::None);
constexpr auto kFullAnycast =
    static_cast<std::uint8_t>(anycast::AnycastClass::Full);

}  // namespace

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

std::vector<FailurePoint> failure_points_columnar(const EventFrame& f) {
  std::vector<FailurePoint> pts;
  for (std::size_t i = 0; i < f.rows; ++i) {
    if (!f.any_failure(i)) continue;
    FailurePoint p;
    p.domains_measured = static_cast<std::uint32_t>(f.domains_measured[i]);
    p.failure_rate = f.failure_rate[i];
    p.domains_hosted = f.domains_hosted[i];
    p.unicast_only = f.anycast_class[i] == kUnicast;
    pts.push_back(p);
  }
  return pts;
}

std::vector<ImpactPoint> impact_points_columnar(const EventFrame& f) {
  std::vector<ImpactPoint> pts;
  pts.reserve(f.rows);
  for (std::size_t i = 0; i < f.rows; ++i) {
    ImpactPoint p;
    p.domains_hosted = f.domains_hosted[i];
    p.peak_impact = f.peak_impact[i];
    p.anycast = f.anycast_class[i] == kFullAnycast;
    pts.push_back(p);
  }
  return pts;
}

namespace {

// The body of the Figs. 9/10 series: (x_of(i), peak impact) for every
// event with a positive peak impact. Per-shard pairs concatenate in shard
// order == event order, so the correlation inputs match a serial loop.
template <typename XOf>
CorrelationSeries impact_series(const EventFrame& f, const char* label,
                                const XOf& x_of) {
  exec::RegionOptions opts;
  opts.label = label;
  CorrelationSeries s = exec::parallel_map_reduce(
      f.rows, opts, CorrelationSeries{},
      [&](const exec::ShardRange& r) {
        CorrelationSeries part;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          if (f.peak_impact[i] <= 0.0) continue;
          part.x.push_back(x_of(i));
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

}  // namespace

CorrelationSeries intensity_impact_series_columnar(
    const EventFrame& f, const telescope::Darknet& darknet) {
  const double factor = darknet.extrapolation_factor();
  return impact_series(f, "columnar.intensity_series", [&](std::size_t i) {
    return f.max_ppm[i] * factor / 60.0;
  });
}

CorrelationSeries duration_impact_series_columnar(const EventFrame& f) {
  return impact_series(f, "columnar.duration_series", [&](std::size_t i) {
    return static_cast<double>(f.duration_s(i));
  });
}

util::CategoryCounter duration_mode_histogram_columnar(const EventFrame& f) {
  util::CategoryCounter counter;
  for (std::size_t i = 0; i < f.rows; ++i) {
    const std::int64_t minutes = f.duration_s(i) / 60;
    std::string bucket;
    if (minutes <= 15) bucket = "<=15m";
    else if (minutes <= 30) bucket = "15-30m";
    else if (minutes <= 60) bucket = "30-60m";
    else if (minutes <= 180) bucket = "1-3h";
    else if (minutes <= 720) bucket = "3-12h";
    else bucket = ">12h";
    counter.add(bucket);
  }
  return counter;
}

namespace {

// Shard partial for one group: impacts in event order plus the integer
// tallies accumulated alongside.
struct GroupPartial {
  std::vector<double> impacts;
  std::uint64_t impaired_10x = 0;
  std::uint64_t severe_100x = 0;
  std::uint64_t events_with_failures = 0;
  std::uint64_t complete_failures = 0;
};

constexpr std::size_t kGroups = 3;
using GroupNames = std::array<const char*, kGroups>;

// The body of every impact_by_* kernel: `group_of(i)` is row i's index
// into `names`, and a row whose index is past the end is dropped. Groups
// are listed in `names` order, empty ones included. Per-shard impact
// vectors concatenate in shard order == event order, so each group's
// median and p90 see the serial loop's input at any thread count.
template <typename GroupOf>
std::vector<GroupImpact> impact_by_group(const EventFrame& f,
                                         const char* span_name,
                                         const char* label,
                                         const GroupNames& names,
                                         const GroupOf& group_of) {
  obs::ScopedSpan span(obs::installed_tracer(), span_name);
  span.set_items(f.rows);
  exec::RegionOptions opts;
  opts.label = label;
  using Partials = std::array<GroupPartial, kGroups>;
  Partials merged = exec::parallel_map_reduce(
      f.rows, opts, Partials{},
      [&](const exec::ShardRange& r) {
        Partials part;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const std::size_t g = group_of(i);
          if (g >= kGroups) continue;
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

  std::vector<GroupImpact> out;
  out.reserve(kGroups);
  for (std::size_t g = 0; g < kGroups; ++g) {
    GroupImpact gi;
    gi.group = names[g];
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

// Band of a diversity count: 1 (or none recorded), 2, 3+.
std::size_t diversity_band(std::uint64_t n) {
  if (n <= 1) return 0;
  return n == 2 ? 1 : 2;
}

}  // namespace

std::vector<GroupImpact> impact_by_anycast_columnar(const EventFrame& f) {
  // Groups in AnycastClass enum order; an unknown class is dropped.
  return impact_by_group(
      f, "columnar.impact_by_anycast", "columnar.anycast_groups",
      {"unicast", "partial-anycast", "anycast"},
      [&](std::size_t i) -> std::size_t { return f.anycast_class[i]; });
}

std::vector<GroupImpact> impact_by_as_diversity_columnar(const EventFrame& f) {
  return impact_by_group(
      f, "columnar.impact_by_as_diversity", "columnar.as_groups",
      {"1 ASN", "2 ASNs", "3+ ASNs"},
      [&](std::size_t i) { return diversity_band(f.distinct_asns[i]); });
}

std::vector<GroupImpact> impact_by_prefix_diversity_columnar(
    const EventFrame& f) {
  return impact_by_group(
      f, "columnar.impact_by_prefix_diversity", "columnar.prefix_groups",
      {"1 /24", "2 /24s", "3+ /24s"},
      [&](std::size_t i) { return diversity_band(f.distinct_slash24[i]); });
}

FailureAttribution failure_attribution_columnar(const EventFrame& f) {
  FailureAttribution attr;
  for (std::size_t i = 0; i < f.rows; ++i) {
    if (!f.complete_failure(i)) continue;
    ++attr.complete_failures;
    if (f.distinct_asns[i] <= 1) ++attr.single_asn;
    if (f.distinct_slash24[i] <= 1) ++attr.single_prefix;
    if (f.anycast_class[i] == kUnicast) ++attr.unicast;
  }
  return attr;
}

std::vector<CompanyImpact> top_companies_by_impact_columnar(
    const EventFrame& f, std::size_t k) {
  std::unordered_map<std::string_view, double> best;
  for (std::size_t i = 0; i < f.rows; ++i) {
    if (f.org[i].empty()) continue;
    double& cur = best[f.org[i]];
    cur = std::max(cur, f.peak_impact[i]);
  }
  std::vector<CompanyImpact> all;
  all.reserve(best.size());
  for (const auto& [org, impact] : best) {
    all.push_back(CompanyImpact{std::string(org), impact});
  }
  std::sort(all.begin(), all.end(),
            [](const CompanyImpact& a, const CompanyImpact& b) {
              if (a.max_impact != b.max_impact)
                return a.max_impact > b.max_impact;
              return a.org < b.org;
            });
  if (all.size() > k) all.resize(k);
  return all;
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

}  // namespace ddos::core
