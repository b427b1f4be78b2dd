#include <gtest/gtest.h>

#include "reactive/platform.h"

namespace ddos::reactive {
namespace {

using netsim::IPv4Addr;
using netsim::SimTime;

// An anycast deployment whose sites differ sharply in catchment weight:
// a flood near the aggregate capacity saturates the heavy-catchment site
// while light sites stay comfortable — exactly the masking §4.3 warns
// about for single-vantage measurement.
struct Fixture {
  dns::DnsRegistry registry;
  attack::AttackSchedule schedule;
  const IPv4Addr ns_ip{10, 1, 0, 1};

  Fixture() {
    std::vector<dns::Site> sites;
    sites.push_back(dns::Site{"hot", 50e3, 20.0, 8.0});   // 8/11 of traffic
    sites.push_back(dns::Site{"cool1", 50e3, 20.0, 1.5});
    sites.push_back(dns::Site{"cool2", 50e3, 20.0, 1.5});
    dns::Nameserver ns(ns_ip, std::move(sites));
    ns.set_legit_pps(100.0);
    registry.add_nameserver(std::move(ns));
    for (int d = 0; d < 40; ++d) {
      registry.add_domain(
          dns::DomainName::must("d" + std::to_string(d) + ".com"), {ns_ip});
    }
    // Flood sized to saturate the hot site (~8/11 share of 90K ~ 65K vs
    // 50K capacity) but not the cool sites (~12K each).
    attack::AttackSpec spec;
    spec.target = ns_ip;
    spec.start = netsim::window_start(100);
    spec.duration_s = 10 * netsim::kSecondsPerWindow;
    spec.peak_pps = 90e3;
    spec.steady = true;
    schedule.add(spec);
  }

  telescope::RSDoSEvent event() const {
    telescope::RSDoSEvent ev;
    ev.victim = ns_ip;
    ev.start_window = 100;
    ev.end_window = 109;
    return ev;
  }
};

// Attack windows where at least one vantage saw degradation (success rate
// below 0.9).
std::size_t degraded_windows_any_vantage(const MultiVantageCampaign& c) {
  std::size_t n = 0;
  for (const auto& w : c.windows) {
    if (w.during_attack && w.min_rate() < 0.9) ++n;
  }
  return n;
}

// Attack windows where vantage `v` alone saw degradation.
std::size_t degraded_windows_from(const MultiVantageCampaign& c,
                                  std::size_t v) {
  std::size_t n = 0;
  for (const auto& w : c.windows) {
    if (w.during_attack && w.rate_per_vantage.at(v) < 0.9) ++n;
  }
  return n;
}

std::vector<VantagePoint> many_vantages(std::size_t n) {
  std::vector<VantagePoint> vps;
  for (std::size_t i = 0; i < n; ++i) {
    vps.push_back(VantagePoint{1000 + i * 37, "NL",
                               "vp" + std::to_string(i)});
  }
  return vps;
}

TEST(MultiVantage, CatchmentMaskingDetected) {
  const Fixture fx;
  const MultiVantagePlatform platform(fx.registry, fx.schedule,
                                      ReactiveParams{}, many_vantages(16));
  const auto campaign = platform.run_campaign(fx.event());
  ASSERT_EQ(campaign.windows.size(), 9u);  // trigger at start+1

  // With 16 vantages, some land in the saturated catchment and some in the
  // healthy ones: the union view must see degradation AND disagreement.
  EXPECT_GT(degraded_windows_any_vantage(campaign), 0u);
  EXPECT_GT(campaign.masked_windows(0.5), 0u);

  // At least one vantage individually sees (almost) nothing wrong.
  bool some_vantage_blind = false;
  for (std::size_t v = 0; v < campaign.vantages.size(); ++v) {
    if (degraded_windows_from(campaign, v) == 0) some_vantage_blind = true;
  }
  EXPECT_TRUE(some_vantage_blind);
}

TEST(MultiVantage, SingleVantageCanMissWhatUnionSees) {
  const Fixture fx;
  const auto vps = many_vantages(16);
  const MultiVantagePlatform platform(fx.registry, fx.schedule,
                                      ReactiveParams{}, vps);
  const auto campaign = platform.run_campaign(fx.event());
  const std::size_t union_view = degraded_windows_any_vantage(campaign);
  std::size_t min_single = union_view;
  for (std::size_t v = 0; v < vps.size(); ++v) {
    min_single = std::min(min_single, degraded_windows_from(campaign, v));
  }
  EXPECT_LT(min_single, union_view);
}

TEST(MultiVantage, UnicastShowsNoMasking) {
  dns::DnsRegistry registry;
  const IPv4Addr ns_ip(10, 2, 0, 1);
  dns::Nameserver ns(ns_ip, {dns::Site{"uni", 50e3, 20.0, 1.0}});
  registry.add_nameserver(std::move(ns));
  for (int d = 0; d < 20; ++d) {
    registry.add_domain(
        dns::DomainName::must("u" + std::to_string(d) + ".com"), {ns_ip});
  }
  attack::AttackSchedule schedule;
  attack::AttackSpec spec;
  spec.target = ns_ip;
  spec.start = netsim::window_start(100);
  spec.duration_s = 5 * netsim::kSecondsPerWindow;
  spec.peak_pps = 5e6;  // dead for everyone
  spec.steady = true;
  schedule.add(spec);
  telescope::RSDoSEvent ev;
  ev.victim = ns_ip;
  ev.start_window = 100;
  ev.end_window = 104;

  const MultiVantagePlatform platform(registry, schedule, ReactiveParams{},
                                      many_vantages(8));
  const auto campaign = platform.run_campaign(ev);
  // Unicast: every vantage reaches the same melted server.
  EXPECT_EQ(campaign.masked_windows(0.5), 0u);
  for (const auto& w : campaign.windows) {
    EXPECT_LT(w.max_rate(), 0.5);
  }
}

TEST(MultiVantage, EmptyForNonNsVictim) {
  const Fixture fx;
  const MultiVantagePlatform platform(fx.registry, fx.schedule,
                                      ReactiveParams{}, many_vantages(4));
  telescope::RSDoSEvent ev;
  ev.victim = IPv4Addr(99, 99, 99, 99);
  ev.start_window = 100;
  ev.end_window = 104;
  EXPECT_TRUE(platform.run_campaign(ev).windows.empty());
}

TEST(MultiVantage, Deterministic) {
  const Fixture fx;
  const MultiVantagePlatform platform(fx.registry, fx.schedule,
                                      ReactiveParams{}, many_vantages(6));
  const auto a = platform.run_campaign(fx.event());
  const auto b = platform.run_campaign(fx.event());
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].rate_per_vantage, b.windows[i].rate_per_vantage);
  }
}

}  // namespace
}  // namespace ddos::reactive
