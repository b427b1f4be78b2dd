// Figure 10 — attack duration vs impact: bimodal durations (15 min, 1 h),
// long attacks weak, with the 19-hour Contabo outlier.
#include "bench_common.h"

#include "core/columnar.h"
#include "store/dataset.h"

using namespace ddos;

int main() {
  bench::print_header(
      "Figure 10: attack duration vs RTT impact",
      "durations bimodal at 15 min and 1 h; high-impact attacks live in "
      "those modes; long attacks trend weak except Contabo (19h, ~30x)");
  const auto& r = bench::longitudinal();
  const store::OwnedEventFrame joined(r.joined);
  const auto series = core::duration_impact_series_columnar(joined.frame());

  util::TextTable table({"Metric", "Paper", "Measured"});
  table.add_row({"Pearson(duration, impact)", "weak",
                 util::format_fixed(series.pearson, 3)});
  table.add_row({"events in series", "-", util::with_commas(series.n())});
  std::cout << table.to_string();

  // Raw duration distribution over all DNS telescope events: the bimodal
  // 15-minute / 1-hour shape of §6.5. (Joined events skew longer because
  // the >=5-measured-domains floor favours attacks spanning more windows.)
  util::CategoryCounter raw;
  for (const auto& ev : r.events) {
    if (!r.world->registry.is_ns_ip(ev.victim)) continue;
    const std::int64_t minutes = ev.duration_s() / 60;
    if (minutes <= 20) raw.add("<=20m");
    else if (minutes <= 45) raw.add("20-45m");
    else if (minutes <= 90) raw.add("45-90m");
    else if (minutes <= 180) raw.add("1.5-3h");
    else raw.add(">3h");
  }
  std::cout << "\nduration histogram over all DNS telescope events "
               "(paper: modes at 15 min and 1 h):\n";
  for (const char* bucket : {"<=20m", "20-45m", "45-90m", "1.5-3h", ">3h"}) {
    std::cout << "  " << bucket << "\t" << raw.count(bucket) << "\t"
              << util::ascii_bar(raw.fraction(bucket), 40) << "\n";
  }

  const auto hist = core::duration_mode_histogram_columnar(joined.frame());
  std::cout << "\nduration histogram over joined events:\n";
  for (const char* bucket :
       {"<=15m", "15-30m", "30-60m", "1-3h", "3-12h", ">12h"}) {
    std::cout << "  " << bucket << "\t" << hist.count(bucket) << "\t"
              << util::ascii_bar(hist.fraction(bucket), 40) << "\n";
  }

  // Impact by duration bucket: the long tail should be weak.
  std::map<std::string, std::vector<double>> impact_by_bucket;
  for (const auto& ev : r.joined) {
    const std::int64_t minutes = ev.duration_s() / 60;
    std::string bucket;
    if (minutes <= 15) bucket = "<=15m";
    else if (minutes <= 30) bucket = "15-30m";
    else if (minutes <= 60) bucket = "30-60m";
    else if (minutes <= 180) bucket = "1-3h";
    else if (minutes <= 720) bucket = "3-12h";
    else bucket = ">12h";
    impact_by_bucket[bucket].push_back(ev.peak_impact);
  }
  std::cout << "\npeak impact by duration (median / p90 / max / n):\n";
  for (const char* bucket :
       {"<=15m", "15-30m", "30-60m", "1-3h", "3-12h", ">12h"}) {
    const auto it = impact_by_bucket.find(bucket);
    if (it == impact_by_bucket.end()) {
      std::cout << "  " << bucket << "\t-\n";
      continue;
    }
    std::cout << "  " << bucket << "\t"
              << util::format_fixed(util::median(it->second), 2) << " / "
              << util::format_fixed(util::percentile(it->second, 90), 1)
              << " / " << util::format_fixed(util::max_of(it->second), 0)
              << " / " << it->second.size() << "\n";
  }

  // The Contabo outlier: a >12h event with substantial impact.
  for (const auto& ev : r.joined) {
    if (ev.duration_s() > 12 * netsim::kSecondsPerHour &&
        ev.peak_impact > 10.0) {
      std::cout << "\noutlier: " << ev.resilience.org << " — "
                << util::format_fixed(
                       static_cast<double>(ev.duration_s()) /
                           netsim::kSecondsPerHour, 1)
                << "h at " << util::format_fixed(ev.peak_impact, 0)
                << "x (paper: Contabo, 19h at ~30x)\n";
    }
  }
  return 0;
}
