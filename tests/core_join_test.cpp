#include "core/join.h"

#include <gtest/gtest.h>

namespace ddos::core {
namespace {

using netsim::IPv4Addr;
using netsim::SimTime;

// Controlled environment: one 2-server NSSet hosting 8 domains, plus an
// open-resolver victim and a non-DNS address. The store is populated by
// hand so the join logic is pinned down without simulation noise.
struct JoinFixture {
  dns::DnsRegistry registry;
  openintel::MeasurementStore store;
  topology::PrefixTable routes;
  topology::AsRegistry orgs;
  anycast::AnycastCensus census;

  const IPv4Addr ns1{10, 0, 0, 1};
  const IPv4Addr ns2{10, 0, 1, 1};
  const IPv4Addr resolver{8, 8, 8, 8};
  dns::NssetId nsset = 0;

  // The attack occupies windows of day 10.
  const netsim::DayIndex attack_day = 10;

  JoinFixture() {
    for (const auto& ip : {ns1, ns2}) {
      registry.add_nameserver(
          dns::Nameserver(ip, {dns::Site{"x", 50e3, 20.0, 1.0}}));
      routes.announce(netsim::Prefix(ip, 24), 64512);
    }
    registry.add_nameserver(
        dns::Nameserver(resolver, {dns::Site{"x", 5e6, 10.0, 1.0}}));
    registry.mark_open_resolver(resolver);
    orgs.add(topology::AsInfo{64512, "TestOrg", "NL"});
    for (int d = 0; d < 8; ++d) {
      registry.add_domain(
          dns::DomainName::must("d" + std::to_string(d) + ".com"), {ns1, ns2});
    }
    registry.add_domain(dns::DomainName::must("misconfig.com"), {resolver});
    nsset = registry.nsset_of_domain(0);
  }

  void add_measurement(netsim::DayIndex day, netsim::WindowIndex window_of_day,
                       dns::ResponseStatus status, double rtt,
                       IPv4Addr chosen) {
    openintel::Measurement m;
    m.time = SimTime(day * netsim::kSecondsPerDay +
                     window_of_day * netsim::kSecondsPerWindow + 10);
    m.domain = 0;
    m.nsset = nsset;
    m.status = status;
    m.rtt_ms = rtt;
    m.chosen_ns = chosen;
    store.add(m);
  }

  /// Baseline day (attack_day - 1): `n` healthy measurements at 20ms,
  /// alternating the agnostically chosen server so both are "seen".
  void add_baseline(int n = 8) {
    for (int i = 0; i < n; ++i) {
      add_measurement(attack_day - 1, i, dns::ResponseStatus::Ok, 20.0,
                      i % 2 == 0 ? ns1 : ns2);
    }
  }

  telescope::RSDoSEvent event_on(IPv4Addr victim, int first_wod = 0,
                                 int last_wod = 5) const {
    telescope::RSDoSEvent ev;
    ev.victim = victim;
    ev.start_window = attack_day * netsim::kWindowsPerDay + first_wod;
    ev.end_window = attack_day * netsim::kWindowsPerDay + last_wod;
    ev.max_ppm = 1000.0;
    ev.first_port = 53;
    return ev;
  }

  JoinPipeline pipeline(JoinParams params = {}) {
    classifier_ = std::make_unique<ResilienceClassifier>(registry, census,
                                                         routes, orgs);
    return JoinPipeline(registry, store, *classifier_, params);
  }

  std::unique_ptr<ResilienceClassifier> classifier_;
};

TEST(Join, HappyPathProducesEvent) {
  JoinFixture fx;
  fx.add_baseline();
  // During the attack: 5 measurements at 200ms (10x) + 1 timeout.
  for (int i = 0; i < 5; ++i) {
    fx.add_measurement(fx.attack_day, i, dns::ResponseStatus::Ok, 200.0,
                       fx.ns1);
  }
  fx.add_measurement(fx.attack_day, 5, dns::ResponseStatus::Timeout, 0.0,
                     fx.ns1);

  auto pipeline = fx.pipeline();
  const auto events = pipeline.run({fx.event_on(fx.ns1)});
  ASSERT_EQ(events.size(), 1u);
  const auto& ev = events[0];
  EXPECT_EQ(ev.nsset, fx.nsset);
  EXPECT_EQ(ev.domains_hosted, 8u);
  EXPECT_EQ(ev.domains_measured, 6u);
  EXPECT_DOUBLE_EQ(ev.baseline_rtt_ms, 20.0);
  EXPECT_DOUBLE_EQ(ev.peak_impact, 10.0);
  EXPECT_EQ(ev.timeouts, 1u);
  EXPECT_NEAR(ev.failure_rate, 1.0 / 6.0, 1e-12);
  EXPECT_EQ(ev.resilience.org, "TestOrg");
  EXPECT_EQ(ev.resilience.distinct_slash24, 2u);
  EXPECT_EQ(ev.resilience.distinct_asns, 1u);
  EXPECT_EQ(pipeline.stats().joined, 1u);
  EXPECT_EQ(pipeline.stats().dns_events, 1u);
}

TEST(Join, OpenResolverFiltered) {
  JoinFixture fx;
  fx.add_baseline();
  auto pipeline = fx.pipeline();
  const auto events = pipeline.run({fx.event_on(fx.resolver)});
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(pipeline.stats().open_resolver_filtered, 1u);
}

TEST(Join, NonDnsVictimSkipped) {
  JoinFixture fx;
  fx.add_baseline();
  auto pipeline = fx.pipeline();
  const auto events = pipeline.run({fx.event_on(IPv4Addr(99, 99, 99, 99))});
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(pipeline.stats().non_dns, 1u);
}

TEST(Join, PreviousDayJoinRequiresSeenNameserver) {
  JoinFixture fx;
  // Baseline exists but the *chosen* server was ns2, so ns1 was never
  // successfully queried on the day before.
  for (int i = 0; i < 8; ++i) {
    fx.add_measurement(fx.attack_day - 1, i, dns::ResponseStatus::Ok, 20.0,
                       fx.ns2);
  }
  for (int i = 0; i < 6; ++i) {
    fx.add_measurement(fx.attack_day, i, dns::ResponseStatus::Ok, 200.0,
                       fx.ns1);
  }
  auto pipeline = fx.pipeline();
  EXPECT_TRUE(pipeline.run({fx.event_on(fx.ns1)}).empty());
  EXPECT_EQ(pipeline.stats().not_seen_day_before, 1u);
  // The same attack joined via ns2 works.
  EXPECT_EQ(pipeline.run({fx.event_on(fx.ns2)}).size(), 1u);
}

TEST(Join, MeasurementFloorFilters) {
  JoinFixture fx;
  fx.add_baseline();
  for (int i = 0; i < 4; ++i) {  // below the >=5 floor of §6.3
    fx.add_measurement(fx.attack_day, i, dns::ResponseStatus::Ok, 200.0,
                       fx.ns1);
  }
  auto pipeline = fx.pipeline();
  EXPECT_TRUE(pipeline.run({fx.event_on(fx.ns1)}).empty());
  EXPECT_EQ(pipeline.stats().below_measurement_floor, 1u);

  JoinParams relaxed;
  relaxed.min_measured_domains = 4;
  auto pipeline2 = fx.pipeline(relaxed);
  EXPECT_EQ(pipeline2.run({fx.event_on(fx.ns1)}).size(), 1u);
}

TEST(Join, MissingBaselineFilters) {
  JoinFixture fx;
  // Seen the day before, but no RTT baseline (e.g. only timeouts).
  fx.add_measurement(fx.attack_day - 1, 0, dns::ResponseStatus::Ok, 20.0,
                     fx.ns1);
  // Build an event whose NSSet has measurements only during the attack...
  // Actually the baseline exists now; remove by using a different day.
  for (int i = 0; i < 6; ++i) {
    fx.add_measurement(fx.attack_day + 5, i, dns::ResponseStatus::Ok, 200.0,
                       fx.ns1);
  }
  // Attack on day+5: no measurements on day+4 -> no baseline, event filtered,
  // but ns_seen on day+4 also fails first. Make ns seen without RTT baseline:
  // a SERVFAIL response marks the server seen but contributes an RTT, so use
  // a day with only timeout-status measurements for the baseline:
  telescope::RSDoSEvent ev = fx.event_on(fx.ns1);
  ev.start_window += 5 * netsim::kWindowsPerDay;
  ev.end_window += 5 * netsim::kWindowsPerDay;
  auto pipeline = fx.pipeline();
  const auto events = pipeline.run({ev});
  EXPECT_TRUE(events.empty());
}

// The victim is seen the day before through NSSet A, and NSSet B, which
// shares that server, is measured during the attack but not the day
// before: B's pair has no baseline, which is not the measurement floor.
TEST(Join, NoBaselineCountedApartFromMeasurementFloor) {
  JoinFixture fx;
  const dns::DomainId solo =
      fx.registry.add_domain(dns::DomainName::must("solo.com"), {fx.ns1});
  const dns::NssetId nsset_b = fx.registry.nsset_of_domain(solo);
  ASSERT_NE(nsset_b, fx.nsset);
  fx.add_baseline();
  for (int i = 0; i < 5; ++i) {
    fx.add_measurement(fx.attack_day, i, dns::ResponseStatus::Ok, 200.0,
                       fx.ns1);
    openintel::Measurement m;
    m.time = SimTime(fx.attack_day * netsim::kSecondsPerDay +
                     i * netsim::kSecondsPerWindow + 20);
    m.domain = solo;
    m.nsset = nsset_b;
    m.status = dns::ResponseStatus::Ok;
    m.rtt_ms = 200.0;
    m.chosen_ns = fx.ns1;
    fx.store.add(m);
  }

  auto pipeline = fx.pipeline();
  const auto events = pipeline.run({fx.event_on(fx.ns1)});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].nsset, fx.nsset);
  EXPECT_EQ(pipeline.stats().joined, 1u);
  EXPECT_EQ(pipeline.stats().no_baseline, 1u);
  EXPECT_EQ(pipeline.stats().below_measurement_floor, 0u);
}

TEST(Join, MeanImpactWeightedByMeasurements) {
  JoinFixture fx;
  fx.add_baseline();
  // Window 0: two measurements at 100ms (5x). Window 1: one at 400ms (20x).
  fx.add_measurement(fx.attack_day, 0, dns::ResponseStatus::Ok, 100.0, fx.ns1);
  fx.add_measurement(fx.attack_day, 0, dns::ResponseStatus::Ok, 100.0, fx.ns1);
  fx.add_measurement(fx.attack_day, 1, dns::ResponseStatus::Ok, 400.0, fx.ns1);
  fx.add_measurement(fx.attack_day, 2, dns::ResponseStatus::Ok, 20.0, fx.ns1);
  fx.add_measurement(fx.attack_day, 3, dns::ResponseStatus::Ok, 20.0, fx.ns1);
  auto pipeline = fx.pipeline();
  const auto events = pipeline.run({fx.event_on(fx.ns1)});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].peak_impact, 20.0);
  // Weighted mean: (5*2 + 20*1 + 1*1 + 1*1) / 5 = 6.4.
  EXPECT_NEAR(events[0].mean_impact, 6.4, 1e-9);
}

TEST(Join, CompleteFailureDetected) {
  JoinFixture fx;
  fx.add_baseline();
  for (int i = 0; i < 6; ++i) {
    fx.add_measurement(fx.attack_day, i, dns::ResponseStatus::Timeout, 0.0,
                       fx.ns1);
  }
  auto pipeline = fx.pipeline();
  const auto events = pipeline.run({fx.event_on(fx.ns1)});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].complete_failure());
  EXPECT_DOUBLE_EQ(events[0].failure_rate, 1.0);
  EXPECT_DOUBLE_EQ(events[0].peak_impact, 0.0);  // nothing answered
}

TEST(Join, MergeConcurrentEventsOnSameNsset) {
  JoinFixture fx;
  fx.add_baseline();
  for (int i = 0; i < 9; ++i) {
    fx.add_measurement(fx.attack_day, i, dns::ResponseStatus::Ok, 200.0,
                       fx.ns1);
  }
  // Two telescope events (one per nameserver) overlapping in time.
  auto pipeline = fx.pipeline();
  const auto merged =
      pipeline.run({fx.event_on(fx.ns1, 0, 5), fx.event_on(fx.ns2, 2, 8)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].rsdos.end_window,
            fx.attack_day * netsim::kWindowsPerDay + 8);

  JoinParams no_merge;
  no_merge.merge_concurrent = false;
  auto pipeline2 = fx.pipeline(no_merge);
  EXPECT_EQ(pipeline2
                .run({fx.event_on(fx.ns1, 0, 5), fx.event_on(fx.ns2, 2, 8)})
                .size(),
            2u);
}

TEST(Join, NonOverlappingEventsNotMerged) {
  JoinFixture fx;
  fx.add_baseline();
  for (int i = 0; i < 12; ++i) {
    fx.add_measurement(fx.attack_day, i, dns::ResponseStatus::Ok, 200.0,
                       fx.ns1);
  }
  auto pipeline = fx.pipeline();
  const auto events =
      pipeline.run({fx.event_on(fx.ns1, 0, 4), fx.event_on(fx.ns1, 7, 11)});
  EXPECT_EQ(events.size(), 2u);
}

TEST(MergeConcurrent, KeepsMaxImpactAndWidestTallies) {
  NssetAttackEvent a, b;
  a.nsset = b.nsset = 3;
  a.rsdos.start_window = 0;
  a.rsdos.end_window = 10;
  a.rsdos.max_ppm = 100.0;
  a.peak_impact = 5.0;
  a.domains_measured = 20;
  a.timeouts = 2;
  b.rsdos.start_window = 5;
  b.rsdos.end_window = 20;
  b.rsdos.max_ppm = 900.0;
  b.peak_impact = 50.0;
  b.domains_measured = 10;
  b.timeouts = 9;
  const auto merged = merge_concurrent_events({a, b});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].rsdos.end_window, 20);
  EXPECT_DOUBLE_EQ(merged[0].rsdos.max_ppm, 900.0);
  EXPECT_DOUBLE_EQ(merged[0].peak_impact, 50.0);
  EXPECT_EQ(merged[0].domains_measured, 20u);  // widest constituent
  EXPECT_EQ(merged[0].timeouts, 2u);           // its tallies, not a sum
}

}  // namespace
}  // namespace ddos::core
