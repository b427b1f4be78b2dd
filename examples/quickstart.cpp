// Quickstart: build a small synthetic DNS world, run a DDoS attack against
// one provider's nameservers, observe it through the network telescope,
// sweep the namespace OpenINTEL-style, join the two datasets, and print
// the per-NSSet impact — the paper's whole pipeline (Fig. 1) in ~100 lines.
//
//   ./examples/quickstart
#include <cstdio>
#include <iostream>

#include "core/columnar.h"
#include "core/impact.h"
#include "scenario/driver.h"
#include "store/dataset.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ddos;

int main() {
  // 1. A small world and a scaled-down 17-month attack workload.
  scenario::LongitudinalConfig cfg = scenario::small_longitudinal_config(7);
  cfg.world.domain_count = 6000;
  cfg.world.provider_count = 80;
  cfg.workload.scale = 200.0;

  std::cout << util::banner("quickstart: RSDoS x OpenINTEL join") << "\n";
  scenario::LongitudinalResult r = scenario::run_longitudinal(cfg);

  std::cout << "world: " << r.world->registry.domain_count() << " domains, "
            << r.world->registry.nsset_count() << " NSSets, "
            << r.world->registry.nameserver_count() << " nameservers\n";
  std::cout << "workload: " << r.workload.schedule.size() << " attacks ("
            << r.workload.dns_attacks << " on DNS infrastructure, "
            << r.workload.invisible_vectors << " invisible vectors)\n";
  std::cout << "telescope: " << r.feed.records().size()
            << " feed records -> " << r.events.size() << " stitched events\n";
  std::cout << "openintel: " << r.swept_measurements
            << " measurements swept\n";
  std::cout << "join: " << r.joined.size() << " NSSet-attack events ("
            << r.join_stats.dns_events << " DNS events, "
            << r.join_stats.open_resolver_filtered
            << " open-resolver filtered)\n\n";

  // 2. The paper's headline per-event metric: Impact_on_RTT.
  util::TextTable table({"NSSet victim", "org", "hosted", "measured",
                         "impact", "fail%", "anycast"});
  std::size_t shown = 0;
  for (const auto& ev : r.joined) {
    if (ev.peak_impact < 2.0 && !ev.any_failure()) continue;
    table.add_row({ev.rsdos.victim.to_string(), ev.resilience.org,
                   std::to_string(ev.domains_hosted),
                   std::to_string(ev.domains_measured),
                   util::format_fixed(ev.peak_impact, 1) + "x",
                   util::format_fixed(100.0 * ev.failure_rate, 1),
                   anycast::to_string(ev.resilience.anycast_class)});
    if (++shown == 12) break;
  }
  std::cout << "events with >=2x RTT impact or failures:\n"
            << table.to_string() << "\n";

  // The summaries are frame kernels: lay the joined rows out once.
  const store::OwnedEventFrame joined(r.joined);
  const core::ImpactSummary impacts =
      core::impact_summary_columnar(joined.frame());
  std::cout << "impact summary: " << impacts.events << " events, "
            << impacts.impaired_10x << " at >=10x, " << impacts.severe_100x
            << " at >=100x\n";
  const core::FailureSummary failures =
      core::failure_summary_columnar(joined.frame());
  std::cout << "failures: " << failures.events_with_failures
            << " events with resolution failures ("
            << failures.timeouts << " timeouts, " << failures.servfails
            << " SERVFAILs)\n";
  return 0;
}
