// Figures 11-13 — efficacy of resilience techniques: anycast, AS
// diversity, and /24 prefix diversity.
#include "bench_common.h"

#include "core/columnar.h"

using namespace ddos;

namespace {

void print_groups(const char* title,
                  const std::vector<core::GroupImpact>& groups) {
  std::cout << title << "\n";
  util::TextTable table({"Class", "Events", "Median", "p90", "Max",
                         ">=10x", ">=100x", "Complete failures"});
  for (const auto& g : groups) {
    table.add_row({g.group, util::with_commas(g.events),
                   util::format_fixed(g.median_impact, 2),
                   util::format_fixed(g.p90_impact, 1),
                   util::format_fixed(g.max_impact, 0),
                   std::to_string(g.impaired_10x),
                   std::to_string(g.severe_100x),
                   std::to_string(g.complete_failures)});
  }
  std::cout << table.to_string() << "\n";
}

}  // namespace

int main() {
  bench::print_header(
      "Figures 11-13: resilience technique efficacy",
      "anycast impact ~1-1.5x with no 100x cases; 81% of complete failures "
      "single-ASN; 60% of failing NSSets single-/24; 99% of failing domains "
      "unicast");
  const auto& r = bench::longitudinal();
  const core::OwnedEventFrame joined(r.joined);
  const core::EventFrame& f = joined.frame();

  print_groups("Fig. 11 — anycast class:",
               core::impact_by_anycast_columnar(f));
  print_groups("Fig. 12 — AS diversity:",
               core::impact_by_as_diversity_columnar(f));
  print_groups("Fig. 13 — /24 prefix diversity:",
               core::impact_by_prefix_diversity_columnar(f));

  const auto attr = core::failure_attribution_columnar(f);
  util::TextTable table({"Complete-failure attribution", "Paper", "Measured"});
  table.add_row({"complete failures", "-",
                 util::with_commas(attr.complete_failures)});
  table.add_row({"single-ASN share", "81%",
                 bench::pct(attr.single_asn_share(), 0)});
  table.add_row({"single-/24 share", "60%",
                 bench::pct(attr.single_prefix_share(), 0)});
  table.add_row({"unicast share", "99%", bench::pct(attr.unicast_share(), 0)});
  std::cout << table.to_string();
  std::cout << "\nshape check: every >=100x event and every complete "
               "failure sits on unicast infrastructure; full-anycast "
               "deployments stay within ~2x — the paper's §6.6 takeaway.\n";
  return 0;
}
