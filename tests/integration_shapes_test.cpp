// Seed-sweep property tests: the paper's headline *shapes* must hold for
// any seed, not just the bench default — otherwise the reproduction would
// be a lucky draw rather than a property of the models.
#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.h"
#include "core/columnar.h"
#include "scenario/driver.h"
#include "store/dataset.h"

namespace ddos::scenario {
namespace {

class ShapeSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static LongitudinalResult run_for_seed(std::uint64_t seed) {
    LongitudinalConfig cfg = small_longitudinal_config(seed);
    cfg.world.provider_count = 120;
    cfg.world.domain_count = 10000;
    cfg.workload.scale = 120.0;
    return run_longitudinal(cfg);
  }
};

TEST_P(ShapeSweep, HeadlineShapesHold) {
  const auto r = run_for_seed(GetParam());
  const auto& registry = r.world->registry;
  ASSERT_GT(r.joined.size(), 20u);

  // Table 3 shape: DNS share of attacks in the paper's band (±0.5pp).
  const auto totals = core::summary_totals(
      core::monthly_summary(r.events, registry));
  EXPECT_GT(totals.dns_attack_share(), 0.006);
  EXPECT_LT(totals.dns_attack_share(), 0.022);

  // Fig. 6 shape: single-port attacks dominate, mostly TCP.
  const auto ports = core::port_distribution(r.events, registry);
  EXPECT_GT(ports.single_port_share(), 0.7);
  EXPECT_LT(ports.single_port_share(), 0.9);
  EXPECT_GT(ports.by_protocol.fraction("TCP"), 0.85);

  // Fig. 8 shape: a minority of events are impaired; a minority of those
  // severe.
  const store::OwnedEventFrame joined(r.joined);
  const auto impacts = core::impact_summary_columnar(joined.frame());
  EXPECT_LT(impacts.impaired_share(), 0.25);
  if (impacts.impaired_10x > 0) {
    EXPECT_LT(impacts.severe_share_of_impaired(), 0.8);
  }

  // Fig. 9 shape: intensity does not predict impact.
  const auto fig9 =
      core::intensity_impact_series_columnar(joined.frame(), r.darknet);
  if (fig9.n() >= 30) {
    EXPECT_LT(std::abs(fig9.pearson), 0.5);
  }

  // Fig. 11 shape: full anycast never reaches the severe band and never
  // fails completely.
  for (const auto& ev : r.joined) {
    if (ev.resilience.anycast_class == anycast::AnycastClass::Full) {
      EXPECT_LT(ev.peak_impact, 100.0);
      EXPECT_FALSE(ev.complete_failure());
    }
  }

  // §6.3 shape: failures are a small minority and mostly timeouts.
  const auto failures = core::failure_summary_columnar(joined.frame());
  EXPECT_LT(failures.failing_event_share(), 0.12);
  if (failures.timeouts + failures.servfails > 10) {
    EXPECT_GT(failures.timeout_share_of_failures(), 0.6);
  }
}

TEST_P(ShapeSweep, JoinAccountingInvariants) {
  const auto r = run_for_seed(GetParam() ^ 0xABCD);
  const auto& s = r.join_stats;
  EXPECT_EQ(s.total_events, r.events.size());
  EXPECT_LE(s.open_resolver_filtered + s.non_dns + s.dns_events,
            s.total_events);
  EXPECT_EQ(s.joined, r.joined.size());
  for (const auto& ev : r.joined) {
    EXPECT_EQ(ev.ok + ev.timeouts + ev.servfails, ev.domains_measured);
    // Each domain is measured once per day, so an event spanning N days
    // can accumulate up to N measurements per hosted domain.
    const auto days_spanned = static_cast<std::uint64_t>(
        (ev.rsdos.end_time() - 1).day() - ev.rsdos.start_time().day() + 1);
    EXPECT_LE(ev.domains_measured, ev.domains_hosted * days_spanned);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeSweep, ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace ddos::scenario
