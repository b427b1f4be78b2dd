// Figure 8 — Impact_on_RTT vs hosted-domain count.
#include "bench_common.h"

#include <cmath>

#include "core/columnar.h"
#include "store/dataset.h"
#include "util/histogram.h"
#include "util/stats.h"

using namespace ddos;

int main() {
  bench::print_header(
      "Figure 8: RTT impact vs hosted domains",
      "~5% of events at >=10x; one third of those at >=100x; very large "
      "deployments cap at 2-3x");
  const auto& r = bench::longitudinal();
  const store::OwnedEventFrame joined(r.joined);
  const auto s = core::impact_summary_columnar(joined.frame());

  util::TextTable table({"Metric", "Paper", "Measured"});
  table.add_row({"events with >=10x impact", "~5% (585/12,691)",
                 bench::pct(s.impaired_share())});
  table.add_row({"share of impaired at >=100x", "~34% (198/585)",
                 bench::pct(s.severe_share_of_impaired())});
  std::cout << table.to_string();

  // Impact by hosted-size magnitude (the figure's x-axis, log-binned).
  const auto pts = core::impact_points_columnar(joined.frame());
  util::LogHistogram sizes(1.0, 1.0, 7);
  std::map<std::size_t, std::vector<double>> impacts_by_bin;
  for (const auto& p : pts) {
    std::size_t bin = 0;
    double lo = 1.0;
    while (bin + 1 < 7 && static_cast<double>(p.domains_hosted) >= lo * 10.0) {
      lo *= 10.0;
      ++bin;
    }
    impacts_by_bin[bin].push_back(p.peak_impact);
  }
  std::cout << "\nimpact by hosted-domain magnitude (median / p90 / max / n):\n";
  for (const auto& [bin, impacts] : impacts_by_bin) {
    const double lo = std::pow(10.0, static_cast<double>(bin));
    std::cout << "  [" << util::format_count(lo) << ", "
              << util::format_count(lo * 10) << ")\t"
              << util::format_fixed(util::median(impacts), 2) << " / "
              << util::format_fixed(util::percentile(impacts, 90), 1) << " / "
              << util::format_fixed(util::max_of(impacts), 0) << " / "
              << impacts.size() << "\n";
  }
  // CDF of peak impact across all events: the mass sits at ~1x with the
  // heavy tail carrying the paper's 10x/100x thresholds.
  std::vector<double> impacts;
  for (const auto& p : pts) impacts.push_back(p.peak_impact);
  const util::Ecdf ecdf(impacts);
  std::cout << "\npeak-impact CDF: ";
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    std::cout << "p" << static_cast<int>(q * 100) << "="
              << util::format_fixed(ecdf.quantile(q), 1) << "x  ";
  }
  std::cout << "\nP(impact >= 10x) = "
            << bench::pct(1.0 - ecdf.at(10.0 - 1e-9))
            << "   P(impact >= 100x) = "
            << bench::pct(1.0 - ecdf.at(100.0 - 1e-9)) << "\n";

  std::cout << "\nshape check: the >=100x tail concentrates on small-to-"
             "medium deployments; the largest bins stay within a few x "
             "(the paper's 10M-domain deployments at 2-3x).\n";
  return 0;
}
