#include <gtest/gtest.h>

#include "attack/attack.h"
#include "attack/backscatter.h"
#include "attack/schedule.h"

namespace ddos::attack {
namespace {

using netsim::IPv4Addr;
using netsim::SimTime;

AttackSpec make_attack(IPv4Addr target, std::int64_t start_s,
                       std::int64_t duration_s, double pps) {
  AttackSpec spec;
  spec.target = target;
  spec.start = SimTime(start_s);
  spec.duration_s = duration_s;
  spec.peak_pps = pps;
  return spec;
}

TEST(AttackSpec, ActiveInterval) {
  const auto a = make_attack(IPv4Addr(1, 2, 3, 4), 600, 900, 1e4);
  EXPECT_FALSE(a.active_at(SimTime(599)));
  EXPECT_TRUE(a.active_at(SimTime(600)));
  EXPECT_TRUE(a.active_at(SimTime(1499)));
  EXPECT_FALSE(a.active_at(SimTime(1500)));
  EXPECT_EQ(a.end().seconds(), 1500);
}

TEST(AttackSpec, WindowRange) {
  const auto a = make_attack(IPv4Addr(1, 2, 3, 4), 600, 900, 1e4);
  EXPECT_EQ(a.first_window(), 2);  // [600, 900)
  EXPECT_EQ(a.last_window(), 4);   // ends at 1500, last touched window 4
}

TEST(AttackSpec, PpsZeroOutsideAttack) {
  const auto a = make_attack(IPv4Addr(1, 2, 3, 4), 600, 900, 1e4);
  EXPECT_DOUBLE_EQ(a.pps_in_window(0), 0.0);
  EXPECT_DOUBLE_EQ(a.pps_in_window(5), 0.0);
}

TEST(AttackSpec, FullWindowNearPeak) {
  auto a = make_attack(IPv4Addr(1, 2, 3, 4), 600, 900, 1e4);
  const double pps = a.pps_in_window(3);  // fully covered window
  EXPECT_GE(pps, 0.9e4 - 1.0);
  EXPECT_LE(pps, 1.1e4 + 1.0);
}

TEST(AttackSpec, PartialWindowProRated) {
  // Attack covers only 60s of window 0.
  auto a = make_attack(IPv4Addr(1, 2, 3, 4), 240, 60, 1e4);
  a.steady = true;
  EXPECT_NEAR(a.pps_in_window(0), 1e4 * 60.0 / 300.0, 1e-9);
}

TEST(AttackSpec, SteadyDisablesWobble) {
  auto a = make_attack(IPv4Addr(1, 2, 3, 4), 0, 3000, 1e4);
  a.steady = true;
  for (netsim::WindowIndex w = 0; w < 10; ++w) {
    EXPECT_DOUBLE_EQ(a.pps_in_window(w), 1e4);
  }
}

TEST(AttackSpec, WobbleIsStablePerWindow) {
  auto a = make_attack(IPv4Addr(1, 2, 3, 4), 0, 3000, 1e4);
  a.id = 7;
  const double first = a.pps_in_window(3);
  EXPECT_DOUBLE_EQ(a.pps_in_window(3), first);  // deterministic
  EXPECT_GE(first, 0.9e4);
  EXPECT_LE(first, 1.1e4);
}

TEST(Protocol, Names) {
  EXPECT_EQ(to_string(Protocol::TCP), "TCP");
  EXPECT_EQ(to_string(Protocol::UDP), "UDP");
  EXPECT_EQ(to_string(Protocol::ICMP), "ICMP");
}

TEST(Schedule, AssignsIds) {
  AttackSchedule sched;
  const auto id1 = sched.add(make_attack(IPv4Addr(1, 1, 1, 1), 0, 300, 1e3));
  const auto id2 = sched.add(make_attack(IPv4Addr(1, 1, 1, 1), 0, 300, 1e3));
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(sched.size(), 2u);
  EXPECT_EQ(sched.attacks()[0].id, id1);
  EXPECT_EQ(sched.attacks()[1].id, id2);
}

TEST(Schedule, AttackPpsSumsConcurrentFloods) {
  AttackSchedule sched;
  auto a = make_attack(IPv4Addr(1, 1, 1, 1), 0, 600, 1e4);
  auto b = make_attack(IPv4Addr(1, 1, 1, 1), 0, 600, 2e4);
  a.steady = b.steady = true;
  sched.add(a);
  sched.add(b);
  EXPECT_DOUBLE_EQ(sched.attack_pps_at(IPv4Addr(1, 1, 1, 1), 0), 3e4);
  EXPECT_DOUBLE_EQ(sched.attack_pps_at(IPv4Addr(1, 1, 1, 2), 0), 0.0);
  EXPECT_DOUBLE_EQ(sched.attack_pps_at(IPv4Addr(1, 1, 1, 1), 10), 0.0);
}

TEST(Schedule, Slash24AggregatesNeighbours) {
  AttackSchedule sched;
  auto a = make_attack(IPv4Addr(1, 1, 1, 1), 0, 600, 1e4);
  auto b = make_attack(IPv4Addr(1, 1, 1, 200), 0, 600, 2e4);
  auto c = make_attack(IPv4Addr(1, 1, 2, 1), 0, 600, 5e4);  // other /24
  a.steady = b.steady = c.steady = true;
  sched.add(a);
  sched.add(b);
  sched.add(c);
  EXPECT_DOUBLE_EQ(sched.slash24_pps_at(IPv4Addr(1, 1, 1, 99), 0), 3e4);
  EXPECT_DOUBLE_EQ(sched.slash24_pps_at(IPv4Addr(1, 1, 2, 99), 0), 5e4);
}

TEST(Schedule, LinkUtilisation) {
  AttackSchedule sched;
  auto a = make_attack(IPv4Addr(1, 1, 1, 1), 0, 600, 5e4);
  a.steady = true;
  sched.add(a);
  // Unconfigured link: no congestion signal.
  EXPECT_DOUBLE_EQ(sched.link_utilisation_at(IPv4Addr(1, 1, 1, 1), 0), 0.0);
  sched.set_link_capacity(IPv4Addr(1, 1, 1, 200), 1e5);  // same /24
  EXPECT_DOUBLE_EQ(sched.link_utilisation_at(IPv4Addr(1, 1, 1, 1), 0), 0.5);
}

TEST(Backscatter, InvisibleForNonRandomSpoof) {
  auto a = make_attack(IPv4Addr(1, 1, 1, 1), 0, 600, 1e6);
  a.spoof = SpoofType::Reflected;
  netsim::Rng rng(1);
  const auto bw = observe_backscatter(a, 0, 1.0 / 341.0, 192,
                                      BackscatterModelParams{}, rng);
  EXPECT_EQ(bw.packets, 0u);

  a.spoof = SpoofType::Direct;
  const auto bw2 = observe_backscatter(a, 0, 1.0 / 341.0, 192,
                                       BackscatterModelParams{}, rng);
  EXPECT_EQ(bw2.packets, 0u);
}

TEST(Backscatter, CapturesExpectedFraction) {
  auto a = make_attack(IPv4Addr(1, 1, 1, 1), 0, 300, 341e3);
  a.steady = true;
  netsim::Rng rng(2);
  // 341K pps * 300 s / 341 = 300K expected captured packets.
  const auto bw = observe_backscatter(a, 0, 1.0 / 341.0, 192,
                                      BackscatterModelParams{}, rng);
  EXPECT_NEAR(static_cast<double>(bw.packets), 300000.0, 5000.0);
  EXPECT_GT(bw.distinct_slash16, 180u);  // uniform spray covers the /16s
  EXPECT_GT(bw.peak_ppm, 50000.0);
}

TEST(Backscatter, VictimResponseCapacityCapsSignal) {
  auto a = make_attack(IPv4Addr(1, 1, 1, 1), 0, 300, 100e6);
  a.steady = true;
  BackscatterModelParams params;
  params.victim_response_capacity_pps = 1e6;
  netsim::Rng rng(3);
  const auto bw =
      observe_backscatter(a, 0, 1.0 / 341.0, 192, params, rng);
  // Capped at 1M pps -> ~880K captured over the window, not 88M.
  EXPECT_LT(static_cast<double>(bw.packets), 1.0e6);
  EXPECT_GT(static_cast<double>(bw.packets), 0.8e6);
}

TEST(Backscatter, ZeroOutsideWindow) {
  const auto a = make_attack(IPv4Addr(1, 1, 1, 1), 0, 300, 1e5);
  netsim::Rng rng(4);
  const auto bw = observe_backscatter(a, 5, 1.0 / 341.0, 192,
                                      BackscatterModelParams{}, rng);
  EXPECT_EQ(bw.packets, 0u);
}

TEST(Backscatter, ExpectedDistinctSubnets) {
  EXPECT_DOUBLE_EQ(expected_distinct_subnets(0, 192), 0.0);
  EXPECT_NEAR(expected_distinct_subnets(1, 192), 1.0, 0.01);
  EXPECT_NEAR(expected_distinct_subnets(100000, 192), 192.0, 0.01);
  EXPECT_DOUBLE_EQ(expected_distinct_subnets(10, 0), 0.0);
}

}  // namespace
}  // namespace ddos::attack
