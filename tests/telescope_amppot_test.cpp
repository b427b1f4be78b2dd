#include "telescope/amppot.h"

#include "telescope/rsdos.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/csv.h"

namespace ddos::telescope {
namespace {

using netsim::IPv4Addr;
using netsim::SimTime;

attack::AttackSpec reflected_attack(std::uint64_t id = 1) {
  attack::AttackSpec spec;
  spec.id = id;
  spec.target = IPv4Addr(9, 9, 9, 9);
  spec.spoof = attack::SpoofType::Reflected;
  spec.start = SimTime(0);
  spec.duration_s = 1800;
  spec.peak_pps = 100e3;
  spec.protocol = attack::Protocol::UDP;
  spec.first_port = 53;
  return spec;
}

TEST(AmpPot, RejectsBadConfig) {
  AmpPotParams p;
  p.honeypots = 0;
  EXPECT_THROW(AmpPotFleet{p}, std::invalid_argument);
  p.honeypots = 100;
  p.reflector_population = 50;
  EXPECT_THROW(AmpPotFleet{p}, std::invalid_argument);
}

TEST(AmpPot, InvisibleToNonReflectedAttacks) {
  const AmpPotFleet fleet(AmpPotParams{});
  netsim::Rng rng(1);
  auto direct = reflected_attack();
  direct.spoof = attack::SpoofType::Direct;
  EXPECT_FALSE(fleet.observe(direct, rng));
  auto random = reflected_attack();
  random.spoof = attack::SpoofType::RandomUniform;
  EXPECT_FALSE(fleet.observe(random, rng));
}

TEST(AmpPot, ObservationCarriesAttackAttributes) {
  AmpPotParams p;
  p.honeypots = 5000;  // big fleet so the draw virtually always hits
  p.mean_reflectors_used = 50000;
  const AmpPotFleet fleet(p);
  netsim::Rng rng(2);
  const auto obs = fleet.observe(reflected_attack(), rng);
  ASSERT_TRUE(obs);
  EXPECT_EQ(obs->victim, IPv4Addr(9, 9, 9, 9));
  EXPECT_EQ(obs->protocol, attack::Protocol::UDP);
  EXPECT_EQ(obs->port, 53);
  EXPECT_GT(obs->honeypots_hit, 0u);
  EXPECT_EQ(obs->duration_s(), 1800);
  // pps estimate within the noise band of the true rate.
  EXPECT_NEAR(obs->estimated_pps, 100e3, 25e3);
}

TEST(AmpPot, ObserveAllRateMatchesFormula) {
  AmpPotParams p;
  p.honeypots = 48;
  p.reflector_population = 2'000'000;
  p.mean_reflectors_used = 6000;
  const AmpPotFleet fleet(p);
  std::vector<attack::AttackSpec> attacks;
  for (std::uint64_t i = 1; i <= 4000; ++i)
    attacks.push_back(reflected_attack(i));
  const auto seen = fleet.observe_all(attacks);
  // Expected detection ~ E over exp-distributed M of 1-(1-h/R)^M; for
  // exponential M with mean m and per-reflector rate q = h/R << 1 this is
  // ~ mq/(1+mq) = 0.144/1.144 ~ 12.6%.
  const double rate = static_cast<double>(seen.size()) / attacks.size();
  EXPECT_GT(rate, 0.07);
  EXPECT_LT(rate, 0.20);
}

TEST(AmpPot, DeterministicAndOrderIndependent) {
  const AmpPotFleet fleet(AmpPotParams{});
  std::vector<attack::AttackSpec> attacks;
  for (std::uint64_t i = 1; i <= 500; ++i)
    attacks.push_back(reflected_attack(i));
  const auto a = fleet.observe_all(attacks);
  std::reverse(attacks.begin(), attacks.end());
  const auto b = fleet.observe_all(attacks);
  EXPECT_EQ(a.size(), b.size());
}

TEST(AmpPot, BiggerFleetSeesMore) {
  std::vector<attack::AttackSpec> attacks;
  for (std::uint64_t i = 1; i <= 2000; ++i)
    attacks.push_back(reflected_attack(i));
  AmpPotParams small;
  small.honeypots = 8;
  AmpPotParams large = small;
  large.honeypots = 512;
  const auto seen_small = AmpPotFleet(small).observe_all(attacks).size();
  const auto seen_large = AmpPotFleet(large).observe_all(attacks).size();
  EXPECT_GT(seen_large, seen_small * 3);
}

TEST(RsdosCsv, RoundTrip) {
  RSDoSRecord rec;
  rec.window = 1234;
  rec.victim = IPv4Addr(1, 2, 3, 4);
  rec.distinct_slash16 = 77;
  rec.protocol = attack::Protocol::UDP;
  rec.first_port = 53;
  rec.unique_ports = 3;
  rec.max_ppm = 123.5;
  rec.packets = 99;
  // The feed CSV row, read back field by field with the CSV line parser.
  const std::vector<std::string> expected = {"1234", "1.2.3.4", "77", "UDP",
                                             "53",   "3",       "123.5", "99"};
  EXPECT_EQ(util::parse_csv_line(rec.to_csv_row()), expected);
  EXPECT_EQ(util::parse_csv_line(RSDoSRecord::csv_header()).size(),
            expected.size());
}

}  // namespace
}  // namespace ddos::telescope
