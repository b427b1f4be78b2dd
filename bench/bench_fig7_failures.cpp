// Figure 7 and §6.3.1 — resolution failures: share of events with
// failures, timeout/SERVFAIL split, the failure-rate scatter, and the port
// mix of harmful attacks.
#include "bench_common.h"

#include "core/columnar.h"

using namespace ddos;

int main() {
  bench::print_header(
      "Figure 7 / §6.3.1: complete failures in resolution",
      "99% of 12,691 events kept answering; failures split 92% timeout / 8% "
      "SERVFAIL; harmful attacks target 53 (49%), 80 (31%), 443 (11%); 99% "
      "of failing domains on unicast");
  const auto& r = bench::longitudinal();
  const core::OwnedEventFrame joined(r.joined);
  const auto s = core::failure_summary_columnar(joined.frame());

  util::TextTable table({"Metric", "Paper", "Measured"});
  table.add_row({"events analysed", "12,691",
                 util::with_commas(s.events)});
  table.add_row({"events with failures", "~1%",
                 bench::pct(s.failing_event_share(), 2)});
  table.add_row({"timeout share of failures", "92%",
                 bench::pct(s.timeout_share_of_failures())});
  table.add_row({"SERVFAIL share of failures", "8%",
                 bench::pct(1.0 - s.timeout_share_of_failures())});
  table.add_separator();
  table.add_row({"harmful attacks on port 53", "49%",
                 bench::pct(s.failed_event_ports.fraction("53"), 0)});
  table.add_row({"harmful attacks on port 80", "31%",
                 bench::pct(s.failed_event_ports.fraction("80"), 0)});
  table.add_row({"harmful attacks on port 443", "11%",
                 bench::pct(s.failed_event_ports.fraction("443"), 0)});
  std::cout << table.to_string();

  // The Fig. 7 scatter: failure rate vs measured domains, coloured by
  // hosted-domain magnitude.
  const auto pts = core::failure_points_columnar(joined.frame());
  std::cout << "\nFig. 7 scatter (failing events): measured-domains, "
               "failure-rate, base-curve (1/measured), hosted-domains, "
               "deployment\n";
  for (const auto& p : pts) {
    // The figure's base curve is a single failure per attack window:
    // failure_rate == 1/measured. Points above it failed repeatedly.
    std::cout << "  " << p.domains_measured << "\t"
              << bench::pct(p.failure_rate, 0) << "\t"
              << bench::pct(1.0 / std::max(1u, p.domains_measured), 0) << "\t"
              << p.domains_hosted << "\t"
              << (p.unicast_only ? "unicast" : "anycast/partial") << "\n";
  }
  std::uint64_t unicast = 0, complete = 0, complete_large = 0;
  for (const auto& p : pts) {
    if (p.unicast_only) ++unicast;
    if (p.failure_rate >= 0.999) {
      ++complete;
      if (p.domains_hosted > 100) ++complete_large;
    }
  }
  std::cout << "\nshape check: " << unicast << "/" << pts.size()
            << " failing events on unicast (paper 99%); " << complete
            << " complete (100%) failures of which " << complete_large
            << " on larger infrastructures (paper: nic.ru's registrar-scale "
               "secondary service).\n";
  return 0;
}
