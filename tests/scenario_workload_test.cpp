#include "scenario/workload.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ddos::scenario {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldParams wp = small_world_params(11);
    wp.provider_count = 120;
    wp.domain_count = 8000;
    world_ = build_world(wp).release();
    LongitudinalParams lp;
    lp.seed = 77;
    lp.scale = 200.0;
    workload_ = new Workload(generate_workload(*world_, lp));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete world_;
  }
  static World* world_;
  static Workload* workload_;
};

World* WorkloadTest::world_ = nullptr;
Workload* WorkloadTest::workload_ = nullptr;

TEST_F(WorkloadTest, MonthlyTotalsTrackTable3) {
  // Count attacks per month (visible specs only, excluding companions).
  std::map<std::string, std::uint64_t> by_month;
  for (const auto& a : workload_->schedule.attacks()) {
    if (a.spoof != attack::SpoofType::RandomUniform) continue;
    ++by_month[a.start.to_string().substr(0, 7)];  // YYYY-MM
  }
  for (const auto& row : paper_monthly_totals()) {
    char key[16];
    std::snprintf(key, sizeof(key), "%04d-%02d", row.year, row.month);
    const double expected = row.total_attacks / 200.0;
    EXPECT_NEAR(static_cast<double>(by_month[key]), expected,
                expected * 0.25 + 25.0)
        << key;
  }
}

TEST_F(WorkloadTest, AllAttacksInsideObservationWindow) {
  const netsim::SimTime window_end =
      netsim::day_start(netsim::month_start_day(2022, 4));
  for (const auto& a : workload_->schedule.attacks()) {
    EXPECT_GE(a.start.seconds(), 0);
    EXPECT_LT(a.start, window_end);
    EXPECT_GT(a.peak_pps, 0.0);
    EXPECT_GE(a.duration_s, 300);
  }
}

TEST_F(WorkloadTest, DnsShareRoughlyPaperLike) {
  const double share =
      static_cast<double>(workload_->dns_attacks) /
      static_cast<double>(workload_->dns_attacks + workload_->other_attacks);
  EXPECT_GT(share, 0.005);
  EXPECT_LT(share, 0.05);
}

TEST_F(WorkloadTest, DnsAttacksTargetNsIps) {
  std::uint64_t on_ns = 0, dns_like = 0;
  for (const auto& a : workload_->schedule.attacks()) {
    if (world_->registry.is_ns_ip(a.target)) ++on_ns;
  }
  dns_like = workload_->dns_attacks;
  // Multi-vector companions also target NS IPs, so on_ns >= dns_attacks.
  EXPECT_GE(on_ns, dns_like);
}

TEST_F(WorkloadTest, MultiVectorCompanionsInvisible) {
  EXPECT_GT(workload_->invisible_vectors, 0u);
  std::uint64_t invisible = 0;
  for (const auto& a : workload_->schedule.attacks()) {
    if (a.spoof != attack::SpoofType::RandomUniform) ++invisible;
  }
  EXPECT_EQ(invisible, workload_->invisible_vectors);
}

TEST_F(WorkloadTest, VictimReuseCompressesUniqueIps) {
  std::unordered_set<netsim::IPv4Addr> uniq;
  std::uint64_t other = 0;
  for (const auto& a : workload_->schedule.attacks()) {
    if (world_->registry.is_ns_ip(a.target)) continue;
    ++other;
    uniq.insert(a.target);
  }
  ASSERT_GT(other, 0u);
  const double ratio = static_cast<double>(uniq.size()) / other;
  // Paper: 1.02M unique IPs / 4.04M attacks ~ 0.25.
  EXPECT_GT(ratio, 0.1);
  EXPECT_LT(ratio, 0.55);
}

TEST_F(WorkloadTest, ScriptedCasesPresent) {
  EXPECT_GT(workload_->scripted_attacks, 0u);
  // The Fig-5 megas hit the top provider's pool.
  const auto& top = world_->providers[0];
  bool mega_found = false;
  for (const auto& a : workload_->schedule.attacks()) {
    if (a.target == top.ns_ips[0] && a.peak_pps > 5e5) mega_found = true;
  }
  EXPECT_TRUE(mega_found);
  // The Apple Russia attack is pinned to 2022-01-21 (§6.3.2).
  const int apple = world_->provider_index("Apple Russia");
  ASSERT_GE(apple, 0);
  bool apple_found = false;
  for (const auto& ip :
       world_->providers[static_cast<std::size_t>(apple)].ns_ips) {
    for (const auto& a : workload_->schedule.attacks()) {
      if (a.target == ip && a.start.to_string().substr(0, 10) == "2022-01-21")
        apple_found = true;
    }
  }
  EXPECT_TRUE(apple_found);
}

TEST_F(WorkloadTest, LinkCapacitiesConfigured) {
  // A unicast provider's /24 link binds under enormous floods.
  for (const auto& p : world_->providers) {
    if (p.style != DeployStyle::UnicastSinglePrefix) continue;
    const auto ip = p.ns_ips.front();
    attack::AttackSchedule probe;  // borrow the configured schedule instead
    (void)probe;
    // Not directly inspectable; assert via utilisation of a synthetic
    // attack on the real schedule: no attack -> zero utilisation.
    EXPECT_GE(workload_->schedule.link_utilisation_at(ip, 0), 0.0);
    break;
  }
}

TEST(Workload, DeterministicInSeed) {
  WorldParams wp = small_world_params(5);
  const auto world = build_world(wp);
  LongitudinalParams lp;
  lp.scale = 400.0;
  const auto w1 = generate_workload(*world, lp);
  const auto w2 = generate_workload(*world, lp);
  ASSERT_EQ(w1.schedule.size(), w2.schedule.size());
  for (std::size_t i = 0; i < w1.schedule.attacks().size(); ++i) {
    const auto& a = w1.schedule.attacks()[i];
    const auto& b = w2.schedule.attacks()[i];
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.start.seconds(), b.start.seconds());
    EXPECT_DOUBLE_EQ(a.peak_pps, b.peak_pps);
  }
}

TEST(Workload, ScriptedCasesCanBeDisabled) {
  WorldParams wp = small_world_params(5);
  const auto world = build_world(wp);
  LongitudinalParams lp;
  lp.scale = 400.0;
  lp.scripted_cases = false;
  const auto w = generate_workload(*world, lp);
  EXPECT_EQ(w.scripted_attacks, 0u);
}

TEST(PaperTotals, MatchPublishedTable3) {
  const auto& rows = paper_monthly_totals();
  ASSERT_EQ(rows.size(), 17u);
  std::uint64_t total = 0, dns = 0;
  for (const auto& r : rows) {
    total += r.total_attacks;
    dns += r.dns_attacks;
  }
  EXPECT_EQ(total, 4039485u);  // Table 1 / Table 3 grand total
  EXPECT_EQ(dns, 48858u);      // Table 3 DNS total
  EXPECT_EQ(rows.front().year, 2020);
  EXPECT_EQ(rows.front().month, 11);
  EXPECT_EQ(rows.back().month, 3);
}

// --- Calibration properties ----------------------------------------------

TEST(Calibration, ExpectedImpactMonotoneInRho) {
  const dns::LoadModelParams model;
  double prev = 0.0;
  for (double rho = 0.0; rho <= 0.999; rho += 0.001) {
    const double impact = expected_impact_at(rho, model, 12.0, 1500.0, 3);
    EXPECT_GE(impact, prev - 1e-6) << "rho=" << rho;
    prev = impact;
  }
}

TEST(Calibration, IdleImpactIsUnity) {
  const dns::LoadModelParams model;
  EXPECT_NEAR(expected_impact_at(0.0, model, 20.0, 1500.0, 3), 1.0, 1e-9);
}

class CalibrationRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(CalibrationRoundTrip, RealizedExpectationNearTarget) {
  const double target = GetParam();
  const dns::LoadModelParams model;
  dns::Nameserver ns(netsim::IPv4Addr(10, 0, 0, 1),
                     {dns::Site{"x", 100e3, 12.0, 1.0}});
  ns.set_legit_pps(1e3);
  const double pps = calibrate_attack_pps(ns, target, model);
  EXPECT_GT(pps, 0.0);
  const double rho = (pps + ns.legit_pps()) / 100e3;
  const double achieved = expected_impact_at(rho, model, 12.0, 1500.0, 3);
  EXPECT_NEAR(achieved, target, target * 0.15 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Targets, CalibrationRoundTrip,
                         ::testing::Values(2.0, 10.0, 30.0, 75.0, 120.0));

TEST(Calibration, PeakCorrectionGrowsWithSamples) {
  EXPECT_GT(peak_of_samples_correction(100), peak_of_samples_correction(10));
  EXPECT_GE(peak_of_samples_correction(2), 1.0);
}

}  // namespace
}  // namespace ddos::scenario
