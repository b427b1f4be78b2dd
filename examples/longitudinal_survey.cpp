// Longitudinal survey (§6): runs the full seventeen-month pipeline at a
// configurable scale and prints the headline statistics of every analysis
// — the condensed version of what the per-table benches reproduce.
//
//   ./examples/longitudinal_survey [scale]
//
// scale divides the paper's attack counts (default 60 for a fast run; the
// benches use 30).
#include <cstdlib>
#include <iostream>

#include "core/analysis.h"
#include "core/columnar.h"
#include "scenario/driver.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ddos;

int main(int argc, char** argv) {
  scenario::LongitudinalConfig cfg = scenario::default_longitudinal_config();
  cfg.workload.scale = argc > 1 ? std::atof(argv[1]) : 60.0;

  std::cout << util::banner("longitudinal survey (paper §6)") << "\n";
  scenario::LongitudinalResult r = scenario::run_longitudinal(cfg);
  const auto& reg = r.world->registry;

  std::cout << "world: " << reg.domain_count() << " domains, "
            << reg.nsset_count() << " NSSets, " << reg.nameserver_count()
            << " nameservers\n";
  std::cout << "attacks: " << r.workload.schedule.size() << " ("
            << r.workload.dns_attacks << " DNS)  events: " << r.events.size()
            << "  swept: " << r.swept_measurements
            << "  joined: " << r.joined.size() << "\n\n";

  // Table 1 flavour.
  const auto summary = r.feed.summarize([&](netsim::IPv4Addr ip) {
    return r.world->routes.origin_of(ip);
  });
  std::cout << "feed: " << util::with_commas(summary.attacks) << " attacks, "
            << util::with_commas(summary.unique_ips) << " IPs, "
            << util::with_commas(summary.unique_slash24) << " /24s, "
            << util::with_commas(summary.unique_asn)
            << " ASes (paper ratios 1 : 0.25 : 0.10 : 0.006)\n";

  // Table 3 flavour.
  const auto monthly = core::monthly_summary(r.events, reg);
  const auto totals = core::summary_totals(monthly);
  std::cout << "DNS share of attacks: "
            << util::format_fixed(100 * totals.dns_attack_share(), 2)
            << "% (paper 1.21%)\n";

  // Fig 6.
  const auto ports = core::port_distribution(r.events, reg);
  std::cout << "single-port: "
            << util::format_fixed(100 * ports.single_port_share(), 1)
            << "% (paper 80.7%); TCP among single-port: "
            << util::format_fixed(100 * ports.by_protocol.fraction("TCP"), 1)
            << "% (paper 90.4%); TCP port 80: "
            << util::format_fixed(100 * ports.tcp_ports.fraction("80"), 1)
            << "% 53: "
            << util::format_fixed(100 * ports.tcp_ports.fraction("53"), 1)
            << "% 443: "
            << util::format_fixed(100 * ports.tcp_ports.fraction("443"), 1)
            << "% (paper 37/30/~20)\n";

  // §6.3.1 + Fig 7. The joined-event statistics are frame kernels: lay
  // the joined rows out once.
  const core::OwnedEventFrame joined(r.joined);
  const core::EventFrame& f = joined.frame();
  const auto fails = core::failure_summary_columnar(f);
  std::cout << "events with failures: "
            << util::format_fixed(100 * fails.failing_event_share(), 2)
            << "% (paper ~1%); timeouts among failures: "
            << util::format_fixed(100 * fails.timeout_share_of_failures(), 1)
            << "% (paper 92%)\n";
  std::cout << "failed-attack ports: 53="
            << util::format_fixed(100 * fails.failed_event_ports.fraction("53"), 0)
            << "% 80="
            << util::format_fixed(100 * fails.failed_event_ports.fraction("80"), 0)
            << "% 443="
            << util::format_fixed(100 * fails.failed_event_ports.fraction("443"), 0)
            << "% (paper 49/31/11)\n";

  // Fig 8.
  const auto impacts = core::impact_summary_columnar(f);
  std::cout << "impact >=10x: "
            << util::format_fixed(100 * impacts.impaired_share(), 1)
            << "% of events (paper ~5%); >=100x share of impaired: "
            << util::format_fixed(100 * impacts.severe_share_of_impaired(), 1)
            << "% (paper ~34%)\n";

  // Fig 9 / 10.
  const auto fig9 = core::intensity_impact_series_columnar(f, r.darknet);
  const auto fig10 = core::duration_impact_series_columnar(f);
  std::cout << "intensity-impact Pearson: "
            << util::format_fixed(fig9.pearson, 3) << " (paper: low)  "
            << "duration-impact Pearson: "
            << util::format_fixed(fig10.pearson, 3) << "\n";

  // Figs 11-13.
  std::cout << "\nimpact by resilience class (median / p90 / max / n):\n";
  const auto print_groups = [](const std::vector<core::GroupImpact>& groups) {
    for (const auto& g : groups) {
      std::cout << "  " << g.group << ": "
                << util::format_fixed(g.median_impact, 2) << " / "
                << util::format_fixed(g.p90_impact, 1) << " / "
                << util::format_fixed(g.max_impact, 0) << " / " << g.events
                << "  (>=100x: " << g.severe_100x
                << ", complete failures: " << g.complete_failures << ")\n";
    }
  };
  print_groups(core::impact_by_anycast_columnar(f));
  print_groups(core::impact_by_as_diversity_columnar(f));
  print_groups(core::impact_by_prefix_diversity_columnar(f));

  const auto attr = core::failure_attribution_columnar(f);
  std::cout << "complete failures: " << attr.complete_failures
            << "; single-ASN share "
            << util::format_fixed(100 * attr.single_asn_share(), 0)
            << "% (paper 81%); single-/24 share "
            << util::format_fixed(100 * attr.single_prefix_share(), 0)
            << "% (paper 60%); unicast share "
            << util::format_fixed(100 * attr.unicast_share(), 0)
            << "% (paper 99%)\n";

  // Table 6.
  std::cout << "\ntop organisations by RTT impact (paper: NForce 348x, "
               "Co-Co 219x, NMU 181x, Hetzner 174x, ...):\n";
  for (const auto& c : core::top_companies_by_impact_columnar(f, 10)) {
    std::cout << "  " << c.org << ": "
              << util::format_fixed(c.max_impact, 0) << "x\n";
  }

  // Table 4.
  std::cout << "\ntop attacked organisations (paper: Google, Unified Layer, "
               "Cloudflare, OVH, Hetzner, ...):\n";
  for (const auto& t : core::top_attacked_orgs(r.events, reg, r.world->routes,
                                               r.world->orgs, 10)) {
    std::cout << "  " << t.label << ": " << t.attacks << "\n";
  }
  return 0;
}
