#include "reactive/platform.h"

#include <gtest/gtest.h>

namespace ddos::reactive {
namespace {

using netsim::IPv4Addr;
using netsim::SimTime;

struct Fixture {
  dns::DnsRegistry registry;
  attack::AttackSchedule schedule;

  const IPv4Addr ns1{10, 0, 0, 1};
  const IPv4Addr ns2{10, 0, 0, 2};

  explicit Fixture(int domains = 80) {
    for (const auto& ip : {ns1, ns2}) {
      dns::Nameserver ns(ip, {dns::Site{"x", 50e3, 20.0, 1.0}});
      ns.set_legit_pps(1e3);
      registry.add_nameserver(std::move(ns));
    }
    for (int d = 0; d < domains; ++d) {
      registry.add_domain(
          dns::DomainName::must("d" + std::to_string(d) + ".com"),
          {ns1, ns2});
    }
  }

  telescope::RSDoSEvent event(netsim::WindowIndex from,
                              netsim::WindowIndex to) const {
    telescope::RSDoSEvent ev;
    ev.victim = ns1;
    ev.start_window = from;
    ev.end_window = to;
    return ev;
  }

  ReactivePlatform platform(ReactiveParams params = {}) const {
    return ReactivePlatform(registry, schedule, params);
  }
};

TEST(Reactive, ProbeSetCappedAtFifty) {
  const Fixture fx(200);
  const auto platform = fx.platform();
  const auto domains = platform.probe_set(fx.ns1);
  EXPECT_EQ(domains.size(), 50u);  // the §4.3.1 / §8 ethical cap
}

TEST(Reactive, ProbeSetSmallDeploymentTakesAll) {
  const Fixture fx(7);
  const auto platform = fx.platform();
  EXPECT_EQ(platform.probe_set(fx.ns1).size(), 7u);
}

TEST(Reactive, ProbeSetStable) {
  const Fixture fx(200);
  const auto platform = fx.platform();
  EXPECT_EQ(platform.probe_set(fx.ns1), platform.probe_set(fx.ns1));
}

TEST(Reactive, ProbeSetEmptyForNonNsVictim) {
  const Fixture fx;
  const auto platform = fx.platform();
  EXPECT_TRUE(platform.probe_set(IPv4Addr(9, 9, 9, 9)).empty());
}

TEST(Reactive, TriggerWithinTenMinutes) {
  const Fixture fx;
  const auto platform = fx.platform();
  const auto campaign = platform.run_campaign(fx.event(100, 105));
  EXPECT_LE(campaign.trigger_delay_s(), 600);
  EXPECT_GT(campaign.trigger_window, campaign.attack_start);
}

TEST(Reactive, CampaignCoversAttackPlus24Hours) {
  const Fixture fx;
  const auto platform = fx.platform();
  const auto campaign = platform.run_campaign(fx.event(100, 111));
  ASSERT_FALSE(campaign.windows.empty());
  EXPECT_EQ(campaign.windows.front().window, 101);
  EXPECT_EQ(campaign.windows.back().window,
            111 + 24 * netsim::kSecondsPerHour / netsim::kSecondsPerWindow);
  // during_attack flags are consistent with the event interval.
  for (const auto& w : campaign.windows) {
    EXPECT_EQ(w.during_attack, w.window <= 111);
  }
}

TEST(Reactive, HealthyDeploymentFullyResolves) {
  const Fixture fx;
  const auto platform = fx.platform();
  const auto campaign = platform.run_campaign(fx.event(100, 102));
  for (const auto& w : campaign.windows) {
    EXPECT_EQ(w.domains_resolved, w.domains_probed);
    EXPECT_DOUBLE_EQ(w.resolution_rate(), 1.0);
    // Iterative probing hits every nameserver individually.
    EXPECT_EQ(w.per_ns.size(), 2u);
    for (const auto& [ip, tally] : w.per_ns) {
      EXPECT_EQ(tally.probes, w.domains_probed);
      EXPECT_TRUE(tally.responsive());
    }
  }
  EXPECT_EQ(campaign.fully_unresolvable_attack_windows(), 0u);
}

TEST(Reactive, SaturatedDeploymentUnresolvableThenRecovers) {
  Fixture fx;
  // Saturate both nameservers for windows 100..111.
  for (const auto& ip : {fx.ns1, fx.ns2}) {
    attack::AttackSpec spec;
    spec.target = ip;
    spec.start = netsim::window_start(100);
    spec.duration_s = 12 * netsim::kSecondsPerWindow;
    spec.peak_pps = 50e6;
    spec.steady = true;
    fx.schedule.add(spec);
  }
  const auto platform = fx.platform();
  const auto campaign = platform.run_campaign(fx.event(100, 111));
  EXPECT_GT(campaign.attack_windows_probed(), 0u);
  EXPECT_EQ(campaign.fully_unresolvable_attack_windows(),
            campaign.attack_windows_probed());
  const auto recovery = campaign.recovery_window();
  EXPECT_EQ(recovery, 112);  // first post-attack window is healthy
  // Per-NS view: almost nothing answered during the attack (the few
  // "responses" are fast SERVFAIL error paths — the server is distressed,
  // not serving).
  for (const auto& w : campaign.windows) {
    if (!w.during_attack) continue;
    for (const auto& [ip, tally] : w.per_ns) {
      EXPECT_LT(tally.responses, tally.probes / 5 + 1);
    }
  }
}

TEST(Reactive, NoRecoveryReportedWhenCampaignEndsDegraded) {
  Fixture fx;
  for (const auto& ip : {fx.ns1, fx.ns2}) {
    attack::AttackSpec spec;
    spec.target = ip;
    spec.start = netsim::window_start(100);
    // Attack runs far beyond the probing tail.
    spec.duration_s = 80 * netsim::kSecondsPerHour;
    spec.peak_pps = 50e6;
    spec.steady = true;
    fx.schedule.add(spec);
  }
  const auto platform = fx.platform();
  // Telescope saw only the first hour (backscatter silenced, §6.5) — the
  // campaign's "post-attack" tail is in fact still under attack.
  const auto campaign = platform.run_campaign(fx.event(100, 111));
  EXPECT_EQ(campaign.recovery_window(), -1);
}

TEST(Reactive, ProbesSpreadWithinWindow) {
  // 50 probes over 300 s is one query every 6 seconds (§8); with fewer
  // domains the spacing widens. We verify via the parameters.
  const ReactiveParams params;
  EXPECT_EQ(params.domains_per_window, 50u);
  EXPECT_EQ(netsim::kSecondsPerWindow / params.domains_per_window, 6);
}

}  // namespace
}  // namespace ddos::reactive
