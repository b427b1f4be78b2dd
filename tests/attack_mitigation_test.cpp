#include "attack/mitigation.h"

#include <gtest/gtest.h>

#include "dns/server.h"
#include "telescope/darknet.h"
#include "telescope/feed.h"

namespace ddos::attack {
namespace {

using netsim::IPv4Addr;
using netsim::SimTime;

AttackSpec big_flood(IPv4Addr target, std::int64_t start_s = 0,
                     std::int64_t duration_s = 2 * 3600,
                     double pps = 800e3) {
  AttackSpec spec;
  spec.target = target;
  spec.start = SimTime(start_s);
  spec.duration_s = duration_s;
  spec.peak_pps = pps;
  spec.steady = true;
  return spec;
}

const AttackSpec* find_attack(const AttackSchedule& schedule,
                              std::uint64_t id) {
  for (const auto& a : schedule.attacks()) {
    if (a.id == id) return &a;
  }
  return nullptr;
}

TEST(Rtbh, TriggersOnlyAboveThreshold) {
  AttackSchedule schedule;
  schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 0, 7200, 800e3));
  schedule.add(big_flood(IPv4Addr(2, 2, 2, 2), 0, 7200, 50e3));  // small
  const auto events = apply_rtbh(schedule, RtbhPolicy{});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].victim, IPv4Addr(1, 1, 1, 1));
}

TEST(Rtbh, IntervalFollowsPolicy) {
  AttackSchedule schedule;
  const auto id = schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 1000, 7200));
  RtbhPolicy policy;
  policy.reaction_delay_s = 600;
  policy.hold_s = 1800;
  const auto events = apply_rtbh(schedule, policy);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].attack_id, id);
  EXPECT_EQ(events[0].from.seconds(), 1600);
  EXPECT_EQ(events[0].until.seconds(), 1000 + 7200 + 1800);
}

TEST(Rtbh, ShortAttackEndsBeforeReaction) {
  AttackSchedule schedule;
  schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 0, 300));  // 5 minutes
  EXPECT_TRUE(apply_rtbh(schedule, RtbhPolicy{}).empty());
}

TEST(Rtbh, ReflectedAttacksNotEligible) {
  AttackSchedule schedule;
  auto spec = big_flood(IPv4Addr(1, 1, 1, 1));
  spec.spoof = SpoofType::Reflected;
  schedule.add(spec);
  EXPECT_TRUE(apply_rtbh(schedule, RtbhPolicy{}).empty());
}

TEST(Rtbh, TruncatesVisiblePortionAndAddsContinuation) {
  AttackSchedule schedule;
  const auto id = schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 0, 7200));
  apply_rtbh(schedule, RtbhPolicy{});
  EXPECT_EQ(schedule.size(), 2u);  // truncated original + continuation
  const auto* original = find_attack(schedule, id);
  ASSERT_NE(original, nullptr);
  EXPECT_EQ(original->duration_s, 600);  // cut at the reaction delay
  // Attacker traffic bookkeeping continues at full rate.
  EXPECT_NEAR(schedule.attack_pps_at(IPv4Addr(1, 1, 1, 1), 5), 800e3, 1.0);
}

TEST(Rtbh, IdempotentOnContinuations) {
  AttackSchedule schedule;
  schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 0, 7200));
  apply_rtbh(schedule, RtbhPolicy{});
  // A second pass finds nothing new (the continuation is Direct, and the
  // truncated original now ends before the reaction delay).
  EXPECT_TRUE(apply_rtbh(schedule, RtbhPolicy{}).empty());
  EXPECT_EQ(schedule.size(), 2u);
}

TEST(Rtbh, TelescopeSeesTruncatedDuration) {
  AttackSchedule schedule;
  schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 0, 7200));
  apply_rtbh(schedule, RtbhPolicy{});

  telescope::RSDoSFeed feed{telescope::InferenceParams{},
                            BackscatterModelParams{}};
  feed.ingest(schedule, telescope::Darknet::ucsd_like(), 5);
  const auto events = feed.events();
  ASSERT_EQ(events.size(), 1u);
  // The attacker ran two hours; the telescope sees ~10 minutes (§6.5's
  // "attack succeeds and impedes the backscatter signal").
  EXPECT_LE(events[0].duration_s(), 900);
}

TEST(Rtbh, BlackholedServerIsDarkForEveryone) {
  dns::Nameserver ns(IPv4Addr(1, 1, 1, 1), {dns::Site{"x", 50e3, 20.0, 1.0}});
  ns.add_blackhole_interval(SimTime(1000), SimTime(2000));
  netsim::Rng rng(1);
  for (const char* country : {"NL", "RU", "US"}) {
    EXPECT_FALSE(ns.query(rng, dns::OfferedLoad{}, dns::LoadModelParams{},
                          SimTime(1500), 0, country)
                     .responded);
  }
  EXPECT_TRUE(ns.query(rng, dns::OfferedLoad{}, dns::LoadModelParams{},
                       SimTime(999))
                  .responded);
  EXPECT_TRUE(ns.query(rng, dns::OfferedLoad{}, dns::LoadModelParams{},
                       SimTime(2000))
                  .responded);
}

TEST(Rtbh, BlackholeIntervalsAccumulate) {
  dns::Nameserver ns(IPv4Addr(1, 1, 1, 1), {dns::Site{"x", 50e3, 20.0, 1.0}});
  ns.add_blackhole_interval(SimTime(10), SimTime(20));
  ns.add_blackhole_interval(SimTime(50), SimTime(60));
  EXPECT_TRUE(ns.blackholed_at(SimTime(15)));
  EXPECT_FALSE(ns.blackholed_at(SimTime(30)));
  EXPECT_TRUE(ns.blackholed_at(SimTime(55)));
  // Degenerate interval ignored.
  ns.add_blackhole_interval(SimTime(100), SimTime(100));
  EXPECT_FALSE(ns.blackholed_at(SimTime(100)));
}

TEST(Scrubbing, VictimLoadDropsTelescopeViewUnchanged) {
  AttackSchedule schedule;
  schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 0, 7200));
  ScrubbingPolicy policy;
  policy.activation_delay_s = 900;
  policy.efficacy = 0.95;
  const auto events = apply_scrubbing(schedule, policy);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].from.seconds(), 900);

  // Victim-side load: full before activation, 5% after.
  EXPECT_NEAR(schedule.attack_pps_at(IPv4Addr(1, 1, 1, 1), 1), 800e3, 1.0);
  EXPECT_NEAR(schedule.attack_pps_at(IPv4Addr(1, 1, 1, 1), 12), 40e3, 1.0);

  // Telescope view: the spoofed traffic still elicits backscatter at full
  // rate for the full two hours (the March 2021 TransIP signature).
  telescope::RSDoSFeed feed{telescope::InferenceParams{},
                            BackscatterModelParams{}};
  feed.ingest(schedule, telescope::Darknet::ucsd_like(), 5);
  const auto inferred = feed.events();
  ASSERT_EQ(inferred.size(), 1u);
  EXPECT_EQ(inferred[0].duration_s(), 7200);
}

TEST(Scrubbing, BelowTriggerUntouched) {
  AttackSchedule schedule;
  schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 0, 7200, 100e3));
  EXPECT_TRUE(apply_scrubbing(schedule, ScrubbingPolicy{}).empty());
  EXPECT_EQ(schedule.size(), 1u);
}

TEST(Scrubbing, IdempotentOnScrubbedTails) {
  AttackSchedule schedule;
  schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 0, 7200));
  apply_scrubbing(schedule, ScrubbingPolicy{});
  EXPECT_TRUE(apply_scrubbing(schedule, ScrubbingPolicy{}).empty());
  EXPECT_EQ(schedule.size(), 2u);
}

TEST(Scrubbing, ServerRecoversOnceActive) {
  AttackSchedule schedule;
  schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 0, 7200, 900e3));
  ScrubbingPolicy policy;
  policy.activation_delay_s = 900;
  policy.efficacy = 0.97;
  apply_scrubbing(schedule, policy);

  dns::Nameserver ns(IPv4Addr(1, 1, 1, 1), {dns::Site{"x", 60e3, 20.0, 1.0}});
  ns.set_legit_pps(1e3);
  netsim::Rng rng(2);
  int ok_before = 0, ok_after = 0;
  for (int i = 0; i < 500; ++i) {
    const dns::OfferedLoad before{
        schedule.attack_pps_at(IPv4Addr(1, 1, 1, 1), 1), 0.0};
    const auto qb =
        ns.query(rng, before, dns::LoadModelParams{}, SimTime(400));
    if (qb.responded && qb.rtt_ms < 1500) ++ok_before;
    const dns::OfferedLoad after{
        schedule.attack_pps_at(IPv4Addr(1, 1, 1, 1), 12), 0.0};
    const auto qa =
        ns.query(rng, after, dns::LoadModelParams{}, SimTime(3700));
    if (qa.responded && qa.rtt_ms < 1500) ++ok_after;
  }
  EXPECT_LT(ok_before, 100);  // 15x overload: mostly dead
  EXPECT_GT(ok_after, 450);   // scrubbed to ~0.45x: healthy again
}

TEST(Schedule, TruncateAttackValidation) {
  AttackSchedule schedule;
  const auto id = schedule.add(big_flood(IPv4Addr(1, 1, 1, 1), 0, 3600));
  EXPECT_FALSE(schedule.truncate_attack(999, SimTime(100)));
  EXPECT_FALSE(schedule.truncate_attack(id, SimTime(0)));     // at start
  EXPECT_FALSE(schedule.truncate_attack(id, SimTime(3600)));  // at end
  EXPECT_TRUE(schedule.truncate_attack(id, SimTime(1800)));
  EXPECT_EQ(find_attack(schedule, id)->duration_s, 1800);
}

}  // namespace
}  // namespace ddos::attack
