// Brute-force oracle for the paper's per-event formulas (§4.1–§4.2):
//
//   Impact_on_RTT = avgRTT(5-minute window) / avgRTT(day before)
//   failure rate  = (timeouts + SERVFAILs) / measured
//
// A sample of the run executor's joined rows is recomputed from raw
// openintel::Measurements: the event's NSSet domains are re-swept with a
// Sweeper built from the same seeds, for the day before the attack and
// for the attack windows, and every statistic is derived directly from
// those measurements — no MeasurementStore, no Aggregate folding, no
// retirement. The previous-day NS mapping is checked the same way: some
// domain of an NSSet holding the victim must have answered through it
// on the day before.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "openintel/sweeper.h"
#include "scenario/driver.h"

namespace ddos::scenario {
namespace {

struct WindowTally {
  std::uint32_t measured = 0;
  std::uint32_t answered = 0;
  double rtt_sum = 0.0;
};

void expect_close(double got, double want, const char* what) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want))) << what;
}

TEST(ImpactOracle, JoinedRowsMatchRawMeasurements) {
  LongitudinalConfig cfg = small_longitudinal_config(21);
  cfg.world.provider_count = 80;
  cfg.world.domain_count = 4000;
  cfg.workload.scale = 200.0;
  // One row per (telescope event, NSSet): merged rows take maxima across
  // constituents, which the per-event formulas below do not model.
  cfg.join.merge_concurrent = false;
  const LongitudinalResult run = run_longitudinal_streaming(cfg, {});
  ASSERT_GE(run.joined.size(), 20u);

  const dns::DnsRegistry& registry = run.world->registry;
  openintel::SweeperParams sp;
  sp.resolver = cfg.resolver;
  sp.model = cfg.model;
  sp.seed = cfg.sweep_seed;
  const openintel::Sweeper sweeper(registry, run.workload.schedule, sp);
  const auto measure = [&](dns::DomainId domain, netsim::DayIndex day) {
    return sweeper.measure(domain, sweeper.measurement_time(domain, day));
  };

  const std::size_t stride = std::max<std::size_t>(1, run.joined.size() / 50);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < run.joined.size() && checked < 50;
       i += stride, ++checked) {
    const core::NssetAttackEvent& row = run.joined[i];
    const telescope::RSDoSEvent& ev = row.rsdos;
    SCOPED_TRACE("joined row " + std::to_string(i));
    const netsim::DayIndex day_before = ev.start_time().day() - 1;
    const auto domains = registry.domains_of_nsset(row.nsset);
    EXPECT_EQ(row.domains_hosted, domains.size());

    // Previous-day NS mapping: the victim answered a query the day before.
    bool seen_day_before = false;
    for (const dns::NssetId nsset : registry.nssets_containing(ev.victim)) {
      for (const dns::DomainId d : registry.domains_of_nsset(nsset)) {
        const openintel::Measurement m = measure(d, day_before);
        if (m.answered() && m.chosen_ns == ev.victim) seen_day_before = true;
      }
    }
    EXPECT_TRUE(seen_day_before);

    // Baseline: mean RTT of the NSSet's answered queries the day before.
    double baseline_sum = 0.0;
    std::uint32_t baseline_n = 0;
    for (const dns::DomainId d : domains) {
      const openintel::Measurement m = measure(d, day_before);
      EXPECT_EQ(m.nsset, row.nsset);
      if (m.answered()) {
        baseline_sum += m.rtt_ms;
        ++baseline_n;
      }
    }
    ASSERT_GT(baseline_n, 0u);
    const double baseline = baseline_sum / baseline_n;

    // Every measurement of the NSSet's domains inside the attack windows.
    std::map<netsim::WindowIndex, WindowTally> windows;
    std::uint32_t ok = 0, timeouts = 0, servfails = 0;
    const netsim::DayIndex last_day = (ev.end_time() - 1).day();
    for (netsim::DayIndex day = ev.start_time().day(); day <= last_day;
         ++day) {
      for (const dns::DomainId d : domains) {
        const netsim::SimTime t = sweeper.measurement_time(d, day);
        if (t.window() < ev.start_window || t.window() > ev.end_window) {
          continue;
        }
        const openintel::Measurement m = sweeper.measure(d, t);
        WindowTally& w = windows[t.window()];
        ++w.measured;
        if (m.answered()) {
          ++w.answered;
          w.rtt_sum += m.rtt_ms;
        }
        ok += m.status == dns::ResponseStatus::Ok;
        timeouts += m.status == dns::ResponseStatus::Timeout;
        servfails += m.status == dns::ResponseStatus::ServFail;
      }
    }

    std::uint32_t measured = 0;
    double peak = 0.0, weighted = 0.0;
    std::uint64_t weight = 0;
    for (const auto& [window, w] : windows) {
      measured += w.measured;
      if (w.answered == 0) continue;
      const double impact = (w.rtt_sum / w.answered) / baseline;
      peak = std::max(peak, impact);
      weighted += impact * w.measured;
      weight += w.measured;
    }

    EXPECT_EQ(row.domains_measured, measured);
    EXPECT_EQ(row.ok, ok);
    EXPECT_EQ(row.timeouts, timeouts);
    EXPECT_EQ(row.servfails, servfails);
    expect_close(row.baseline_rtt_ms, baseline, "baseline_rtt_ms");
    expect_close(row.peak_impact, peak, "peak_impact");
    expect_close(row.mean_impact, weight ? weighted / weight : 0.0,
                 "mean_impact");
    expect_close(row.failure_rate,
                 static_cast<double>(timeouts + servfails) / measured,
                 "failure_rate");
  }
  EXPECT_GE(checked, 20u);
}

}  // namespace
}  // namespace ddos::scenario
