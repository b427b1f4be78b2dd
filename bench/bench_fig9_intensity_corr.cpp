// Figure 9 — correlation between telescope-inferred attack intensity and
// observed DNS impact, plus the bimodal intensity distribution of §6.4.
#include "bench_common.h"

#include <cmath>

#include "core/columnar.h"
#include "util/histogram.h"

using namespace ddos;

int main() {
  bench::print_header(
      "Figure 9: attack intensity vs RTT impact",
      "low Pearson correlation; bimodal telescope rate with modes near 50 "
      "ppm (~17K ppm victim-side) and 6,000 ppm (~2M ppm victim-side)");
  const auto& r = bench::longitudinal();
  const core::OwnedEventFrame joined(r.joined);
  const auto series =
      core::intensity_impact_series_columnar(joined.frame(), r.darknet);

  util::TextTable table({"Metric", "Paper", "Measured"});
  table.add_row({"Pearson(intensity, impact)", "low (no strong corr.)",
                 util::format_fixed(series.pearson, 3)});
  table.add_row({"Spearman(intensity, impact)", "-",
                 util::format_fixed(series.spearman, 3)});
  table.add_row({"events in series", "-", util::with_commas(series.n())});
  std::cout << table.to_string();

  // Bimodality of the telescope-observed rates (all DNS events).
  util::LogHistogram ppm_hist(1.0, 0.5, 14);  // half-decade bins
  for (const auto& ev : r.events) {
    if (!r.world->registry.is_ns_ip(ev.victim)) continue;
    ppm_hist.add(ev.max_ppm);
  }
  std::cout << "\ntelescope max-ppm distribution over DNS events "
               "(half-decade bins):\n";
  for (std::size_t i = 0; i < ppm_hist.bin_count(); ++i) {
    if (ppm_hist.bin(i) == 0) continue;
    std::cout << "  [" << util::format_count(ppm_hist.bin_lo(i)) << ", "
              << util::format_count(ppm_hist.bin_hi(i)) << ") ppm\t"
              << ppm_hist.bin(i) << "\t"
              << util::ascii_bar(ppm_hist.fraction(i) * 2.5, 40) << "\n";
  }
  std::cout << "\nshape check: |Pearson| well below 0.5 reproduces the "
               "paper's key takeaway — telescope intensity signals ongoing "
               "attacks but does not predict impact, because capacity "
               "headroom and resilience deployment dominate, and "
               "multi-vector attacks hide intensity from the telescope.\n";
  return 0;
}
