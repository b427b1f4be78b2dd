#include "core/analysis.h"

#include <gtest/gtest.h>

#include "core/columnar.h"

namespace ddos::core {
namespace {

using netsim::IPv4Addr;

telescope::RSDoSEvent event_on(IPv4Addr victim, netsim::DayIndex day,
                               int windows = 3,
                               attack::Protocol proto = attack::Protocol::TCP,
                               std::uint16_t port = 80,
                               std::uint16_t unique_ports = 1) {
  telescope::RSDoSEvent ev;
  ev.victim = victim;
  ev.start_window = day * netsim::kWindowsPerDay;
  ev.end_window = ev.start_window + windows - 1;
  ev.protocol = proto;
  ev.first_port = port;
  ev.max_unique_ports = unique_ports;
  ev.max_ppm = 100.0;
  return ev;
}

dns::DnsRegistry registry_with_ns(std::vector<IPv4Addr> ns_ips,
                                  int domains_per_set = 3) {
  dns::DnsRegistry reg;
  int d = 0;
  for (const auto& ip : ns_ips) {
    for (int i = 0; i < domains_per_set; ++i) {
      reg.add_domain(dns::DomainName::must("d" + std::to_string(d++) + ".com"),
                     {ip});
    }
  }
  return reg;
}

TEST(MonthlySummary, ClassifiesAndCountsUniqueIps) {
  auto reg = registry_with_ns({IPv4Addr(10, 0, 0, 1)});
  const std::vector<telescope::RSDoSEvent> events = {
      event_on(IPv4Addr(10, 0, 0, 1), 5),    // Nov 2020, DNS
      event_on(IPv4Addr(10, 0, 0, 1), 6),    // Nov 2020, DNS (same IP)
      event_on(IPv4Addr(99, 0, 0, 1), 5),    // Nov 2020, other
      event_on(IPv4Addr(10, 0, 0, 1), 40),   // Dec 2020, DNS
  };
  const auto rows = monthly_summary(events, reg);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].year, 2020);
  EXPECT_EQ(rows[0].month, 11);
  EXPECT_EQ(rows[0].dns_attacks, 2u);
  EXPECT_EQ(rows[0].other_attacks, 1u);
  EXPECT_EQ(rows[0].dns_ips, 1u);
  EXPECT_EQ(rows[0].other_ips, 1u);
  EXPECT_NEAR(rows[0].dns_attack_share(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(rows[1].month, 12);

  const auto totals = summary_totals(rows);
  EXPECT_EQ(totals.dns_attacks, 3u);
  EXPECT_EQ(totals.total_attacks(), 4u);
}

TEST(MonthlySummary, OpenResolversCountAsDnsInTable3) {
  auto reg = registry_with_ns({IPv4Addr(8, 8, 8, 8)});
  reg.mark_open_resolver(IPv4Addr(8, 8, 8, 8));
  const auto rows =
      monthly_summary({event_on(IPv4Addr(8, 8, 8, 8), 5)}, reg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].dns_attacks, 1u);
}

TEST(MonthlyAffected, UnionsDomainsAndTracksLargestBlast) {
  dns::DnsRegistry reg;
  const IPv4Addr big(10, 0, 0, 1), small(10, 0, 0, 2);
  for (int i = 0; i < 10; ++i)
    reg.add_domain(dns::DomainName::must("b" + std::to_string(i) + ".com"),
                   {big});
  reg.add_domain(dns::DomainName::must("s.com"), {small});
  const std::vector<telescope::RSDoSEvent> events = {
      event_on(big, 5), event_on(big, 6), event_on(small, 7)};
  const auto rows = monthly_affected_domains(events, reg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].affected_domains, 11u);  // distinct across the month
  EXPECT_EQ(rows[0].largest_single_event, 10u);
  EXPECT_EQ(rows[0].attacked_ns_ips, 2u);
}

TEST(MonthlyAffected, ExcludesOpenResolvers) {
  auto reg = registry_with_ns({IPv4Addr(8, 8, 8, 8)});
  reg.mark_open_resolver(IPv4Addr(8, 8, 8, 8));
  EXPECT_TRUE(
      monthly_affected_domains({event_on(IPv4Addr(8, 8, 8, 8), 5)}, reg)
          .empty());
}

TEST(TopOrgs, RanksByAttackCount) {
  auto reg = registry_with_ns({IPv4Addr(10, 0, 0, 1), IPv4Addr(20, 0, 0, 1)});
  topology::PrefixTable routes;
  routes.announce(netsim::Prefix(IPv4Addr(10, 0, 0, 0), 24), 1);
  routes.announce(netsim::Prefix(IPv4Addr(20, 0, 0, 0), 24), 2);
  topology::AsRegistry orgs;
  orgs.add(topology::AsInfo{1, "Alpha", "US"});
  orgs.add(topology::AsInfo{2, "Beta", "US"});
  std::vector<telescope::RSDoSEvent> events;
  for (int i = 0; i < 5; ++i) events.push_back(event_on(IPv4Addr(10, 0, 0, 1), i));
  events.push_back(event_on(IPv4Addr(20, 0, 0, 1), 1));
  events.push_back(event_on(IPv4Addr(99, 0, 0, 1), 1));  // non-DNS: ignored
  const auto top = top_attacked_orgs(events, reg, routes, orgs, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].label, "Alpha");
  EXPECT_EQ(top[0].attacks, 5u);
  EXPECT_EQ(top[1].label, "Beta");
}

TEST(TopIps, LabelsResolverVsAuthoritative) {
  auto reg = registry_with_ns({IPv4Addr(10, 0, 0, 1), IPv4Addr(8, 8, 8, 8)});
  reg.mark_open_resolver(IPv4Addr(8, 8, 8, 8));
  std::vector<telescope::RSDoSEvent> events;
  for (int i = 0; i < 3; ++i)
    events.push_back(event_on(IPv4Addr(8, 8, 8, 8), i));
  events.push_back(event_on(IPv4Addr(10, 0, 0, 1), 0));
  const auto top = top_attacked_ips(events, reg, 5);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].ip, IPv4Addr(8, 8, 8, 8));
  EXPECT_EQ(top[0].type, "open-resolver");
  EXPECT_EQ(top[1].type, "authoritative-ns");
}

TEST(PortDistribution, BucketsAndShares) {
  auto reg = registry_with_ns({IPv4Addr(10, 0, 0, 1)});
  std::vector<telescope::RSDoSEvent> events = {
      event_on(IPv4Addr(10, 0, 0, 1), 0, 3, attack::Protocol::TCP, 80),
      event_on(IPv4Addr(10, 0, 0, 1), 1, 3, attack::Protocol::TCP, 53),
      event_on(IPv4Addr(10, 0, 0, 1), 2, 3, attack::Protocol::UDP, 53),
      event_on(IPv4Addr(10, 0, 0, 1), 3, 3, attack::Protocol::TCP, 8080),
      event_on(IPv4Addr(10, 0, 0, 1), 4, 3, attack::Protocol::TCP, 80, 9),
  };
  const auto dist = port_distribution(events, reg);
  EXPECT_EQ(dist.total, 5u);
  EXPECT_EQ(dist.single_port, 4u);
  EXPECT_DOUBLE_EQ(dist.single_port_share(), 0.8);
  EXPECT_EQ(dist.by_protocol.count("TCP"), 3u);
  EXPECT_EQ(dist.by_protocol.count("UDP"), 1u);
  EXPECT_EQ(dist.tcp_ports.count("80"), 1u);
  EXPECT_EQ(dist.tcp_ports.count("53"), 1u);
  EXPECT_EQ(dist.tcp_ports.count("other"), 1u);
  EXPECT_EQ(dist.udp_ports.count("53"), 1u);
}

TEST(PortBucket, Mapping) {
  EXPECT_EQ(port_bucket(80), "80");
  EXPECT_EQ(port_bucket(53), "53");
  EXPECT_EQ(port_bucket(443), "443");
  EXPECT_EQ(port_bucket(8080), "other");
}

NssetAttackEvent make_event(double peak_impact, std::uint32_t timeouts,
                            std::uint32_t servfails, std::uint32_t ok,
                            std::uint64_t hosted = 100,
                            anycast::AnycastClass ac = anycast::AnycastClass::None,
                            std::uint32_t asns = 1, std::uint32_t prefixes = 1) {
  NssetAttackEvent ev;
  ev.peak_impact = peak_impact;
  ev.timeouts = timeouts;
  ev.servfails = servfails;
  ev.ok = ok;
  ev.domains_measured = timeouts + servfails + ok;
  ev.failure_rate =
      ev.domains_measured
          ? static_cast<double>(timeouts + servfails) / ev.domains_measured
          : 0.0;
  ev.domains_hosted = hosted;
  ev.resilience.anycast_class = ac;
  ev.resilience.distinct_asns = asns;
  ev.resilience.distinct_slash24 = prefixes;
  ev.rsdos.first_port = 53;
  ev.rsdos.start_window = 0;
  ev.rsdos.end_window = 11;  // one hour
  return ev;
}

// The joined-event kernels take a frame: each hand-built row set is laid
// out once, as an in-memory run does.
class Frame {
 public:
  explicit Frame(const std::vector<NssetAttackEvent>& events)
      : owned_(events) {}
  operator const EventFrame&() const { return owned_.frame(); }

 private:
  OwnedEventFrame owned_;
};

TEST(FailureSummary, CountsAndShares) {
  const Frame events({
      make_event(1.0, 0, 0, 10),
      make_event(5.0, 9, 1, 0),
      make_event(2.0, 1, 0, 9),
  });
  const auto s = failure_summary_columnar(events);
  EXPECT_EQ(s.events, 3u);
  EXPECT_EQ(s.events_with_failures, 2u);
  EXPECT_EQ(s.timeouts, 10u);
  EXPECT_EQ(s.servfails, 1u);
  EXPECT_NEAR(s.timeout_share_of_failures(), 10.0 / 11.0, 1e-12);
  EXPECT_NEAR(s.failing_event_share(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(s.failed_event_ports.count("53"), 2u);
}

TEST(FailurePoints, OnlyFailingEvents) {
  const Frame events({
      make_event(1.0, 0, 0, 10),
      make_event(5.0, 5, 0, 5, 1000, anycast::AnycastClass::None),
  });
  const auto pts = failure_points_columnar(events);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].domains_measured, 10u);
  EXPECT_DOUBLE_EQ(pts[0].failure_rate, 0.5);
  EXPECT_EQ(pts[0].domains_hosted, 1000u);
  EXPECT_TRUE(pts[0].unicast_only);
}

TEST(ImpactSummary, ThresholdCounts) {
  const Frame events({make_event(1.5, 0, 0, 10), make_event(15.0, 0, 0, 10),
                      make_event(150.0, 0, 0, 10)});
  const auto s = impact_summary_columnar(events);
  EXPECT_EQ(s.events, 3u);
  EXPECT_EQ(s.impaired_10x, 2u);
  EXPECT_EQ(s.severe_100x, 1u);
  EXPECT_NEAR(s.impaired_share(), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.severe_share_of_impaired(), 0.5);
}

TEST(ImpactPoints, OnePerEventInOrder) {
  const Frame events({
      make_event(150.0, 0, 0, 10, 7, anycast::AnycastClass::None),
      make_event(1.2, 0, 0, 10, 9000, anycast::AnycastClass::Full),
      make_event(3.0, 0, 0, 10, 40, anycast::AnycastClass::Partial),
  });
  const auto pts = impact_points_columnar(events);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].domains_hosted, 7u);
  EXPECT_EQ(pts[0].peak_impact, 150.0);
  EXPECT_FALSE(pts[0].anycast);
  EXPECT_EQ(pts[1].domains_hosted, 9000u);
  EXPECT_TRUE(pts[1].anycast);   // only full anycast counts
  EXPECT_FALSE(pts[2].anycast);  // partial does not
}

TEST(CorrelationSeries, PerfectCorrelationDetected) {
  std::vector<NssetAttackEvent> events;
  for (int i = 1; i <= 20; ++i) {
    auto ev = make_event(static_cast<double>(i), 0, 0, 10);
    ev.rsdos.max_ppm = 100.0 * i;
    events.push_back(ev);
  }
  const auto darknet = telescope::Darknet::ucsd_like();
  const auto series = intensity_impact_series_columnar(Frame(events), darknet);
  EXPECT_EQ(series.n(), 20u);
  EXPECT_NEAR(series.pearson, 1.0, 1e-9);
  EXPECT_NEAR(series.spearman, 1.0, 1e-9);
  // x is telescope ppm extrapolated to victim pps.
  EXPECT_EQ(series.x[0], 100.0 * darknet.extrapolation_factor() / 60.0);
}

TEST(CorrelationSeries, SkipsZeroImpactEvents) {
  const Frame events({make_event(0.0, 10, 0, 0), make_event(2.0, 0, 0, 10)});
  const auto series = duration_impact_series_columnar(events);
  ASSERT_EQ(series.n(), 1u);
  EXPECT_EQ(series.x[0], 3600.0);  // windows 0..11: one hour
  EXPECT_EQ(series.y[0], 2.0);
  EXPECT_EQ(intensity_impact_series_columnar(
                events, telescope::Darknet::ucsd_like())
                .n(),
            1u);
}

TEST(DurationHistogram, Buckets) {
  auto quick = make_event(1.0, 0, 0, 10);
  quick.rsdos.end_window = 2;  // 15 minutes
  auto hour = make_event(1.0, 0, 0, 10);
  hour.rsdos.end_window = 11;  // 60 minutes
  auto marathon = make_event(1.0, 0, 0, 10);
  marathon.rsdos.end_window = 12 * 19 - 1;  // 19 hours (Contabo)
  const auto hist =
      duration_mode_histogram_columnar(Frame({quick, hour, marathon}));
  EXPECT_EQ(hist.count("<=15m"), 1u);
  EXPECT_EQ(hist.count("30-60m"), 1u);
  EXPECT_EQ(hist.count(">12h"), 1u);
  EXPECT_EQ(hist.total(), 3u);
}

TEST(GroupImpact, AnycastGrouping) {
  const Frame events({
      make_event(150.0, 0, 0, 10, 100, anycast::AnycastClass::None),
      make_event(1.2, 0, 0, 10, 100, anycast::AnycastClass::Full),
      make_event(1.4, 0, 0, 10, 100, anycast::AnycastClass::Full),
      make_event(3.0, 0, 0, 10, 100, anycast::AnycastClass::Partial),
  });
  const auto groups = impact_by_anycast_columnar(events);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].group, "unicast");
  EXPECT_EQ(groups[0].events, 1u);
  EXPECT_EQ(groups[0].severe_100x, 1u);
  EXPECT_EQ(groups[1].group, "partial-anycast");
  EXPECT_EQ(groups[1].events, 1u);
  EXPECT_EQ(groups[2].group, "anycast");
  EXPECT_EQ(groups[2].events, 2u);
  EXPECT_EQ(groups[2].severe_100x, 0u);
  EXPECT_NEAR(groups[2].median_impact, 1.3, 1e-12);
}

TEST(GroupImpact, EmptyGroupsStillListed) {
  const auto groups = impact_by_as_diversity_columnar(Frame({}));
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].group, "1 ASN");
  EXPECT_EQ(groups[0].events, 0u);
}

TEST(GroupImpact, AsDiversityBands) {
  const Frame events({
      make_event(5.0, 10, 0, 0, 100, anycast::AnycastClass::None, 0, 1),
      make_event(5.0, 0, 0, 10, 100, anycast::AnycastClass::None, 1, 1),
      make_event(7.0, 0, 0, 10, 100, anycast::AnycastClass::None, 2, 1),
      make_event(9.0, 0, 0, 10, 100, anycast::AnycastClass::None, 3, 1),
      make_event(4.0, 0, 0, 10, 100, anycast::AnycastClass::None, 6, 1),
  });
  const auto groups = impact_by_as_diversity_columnar(events);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].group, "1 ASN");
  EXPECT_EQ(groups[0].events, 2u);  // an unrecorded count bands as 1
  EXPECT_EQ(groups[0].complete_failures, 1u);
  EXPECT_EQ(groups[1].group, "2 ASNs");
  EXPECT_EQ(groups[1].events, 1u);
  EXPECT_EQ(groups[1].max_impact, 7.0);
  EXPECT_EQ(groups[2].group, "3+ ASNs");
  EXPECT_EQ(groups[2].events, 2u);
  EXPECT_EQ(groups[2].max_impact, 9.0);
}

TEST(GroupImpact, PrefixDiversityBands) {
  const Frame events({
      make_event(5.0, 0, 0, 10, 100, anycast::AnycastClass::None, 1, 1),
      make_event(5.0, 0, 0, 10, 100, anycast::AnycastClass::None, 1, 2),
      make_event(5.0, 0, 0, 10, 100, anycast::AnycastClass::None, 1, 5),
  });
  const auto groups = impact_by_prefix_diversity_columnar(events);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].group, "1 /24");
  EXPECT_EQ(groups[0].events, 1u);
  EXPECT_EQ(groups[1].events, 1u);
  EXPECT_EQ(groups[2].group, "3+ /24s");
  EXPECT_EQ(groups[2].events, 1u);
}

TEST(FailureAttribution, SharesOverCompleteFailures) {
  const Frame events({
      make_event(0.0, 10, 0, 0, 100, anycast::AnycastClass::None, 1, 1),
      make_event(0.0, 10, 0, 0, 100, anycast::AnycastClass::None, 2, 2),
      make_event(5.0, 1, 0, 9, 100, anycast::AnycastClass::None, 1, 1),
  });
  const auto attr = failure_attribution_columnar(events);
  EXPECT_EQ(attr.complete_failures, 2u);  // the partial failure is excluded
  EXPECT_EQ(attr.single_asn, 1u);
  EXPECT_EQ(attr.single_prefix, 1u);
  EXPECT_EQ(attr.unicast, 2u);
  EXPECT_DOUBLE_EQ(attr.single_asn_share(), 0.5);
  EXPECT_DOUBLE_EQ(attr.unicast_share(), 1.0);
}

TEST(TopCompanies, MaxImpactPerOrg) {
  auto a1 = make_event(50.0, 0, 0, 10);
  a1.resilience.org = "Alpha";
  auto a2 = make_event(348.0, 0, 0, 10);
  a2.resilience.org = "Alpha";
  auto b = make_event(219.0, 0, 0, 10);
  b.resilience.org = "Beta";
  auto anon = make_event(999.0, 0, 0, 10);
  anon.resilience.org = "";  // unattributed: excluded
  const auto top =
      top_companies_by_impact_columnar(Frame({a1, a2, b, anon}), 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].org, "Alpha");
  EXPECT_DOUBLE_EQ(top[0].max_impact, 348.0);
  EXPECT_EQ(top[1].org, "Beta");
  EXPECT_EQ(top_companies_by_impact_columnar(Frame({a1, a2, b}), 1).size(),
            1u);
}

// Every joined-event kernel over a zero-row frame: empty series and
// points, zero tallies, and the three listed groups of each grouping.
const EventFrame& empty_frame() {
  static const OwnedEventFrame owned({});
  return owned.frame();
}

TEST(EmptyFrame, FailureSummary) {
  const auto s = failure_summary_columnar(empty_frame());
  EXPECT_EQ(s.events, 0u);
  EXPECT_EQ(s.events_with_failures, 0u);
  EXPECT_EQ(s.failed_event_ports.total(), 0u);
  EXPECT_EQ(s.failing_event_share(), 0.0);
}

TEST(EmptyFrame, FailurePoints) {
  EXPECT_TRUE(failure_points_columnar(empty_frame()).empty());
}

TEST(EmptyFrame, ImpactSummary) {
  const auto s = impact_summary_columnar(empty_frame());
  EXPECT_EQ(s.events, 0u);
  EXPECT_EQ(s.impaired_share(), 0.0);
}

TEST(EmptyFrame, ImpactPoints) {
  EXPECT_TRUE(impact_points_columnar(empty_frame()).empty());
}

TEST(EmptyFrame, IntensitySeries) {
  const auto s = intensity_impact_series_columnar(
      empty_frame(), telescope::Darknet::ucsd_like());
  EXPECT_EQ(s.n(), 0u);
  EXPECT_TRUE(s.y.empty());
}

TEST(EmptyFrame, DurationSeries) {
  const auto s = duration_impact_series_columnar(empty_frame());
  EXPECT_EQ(s.n(), 0u);
  EXPECT_TRUE(s.y.empty());
}

TEST(EmptyFrame, DurationHistogram) {
  EXPECT_EQ(duration_mode_histogram_columnar(empty_frame()).total(), 0u);
}

void expect_three_empty_groups(const std::vector<GroupImpact>& groups) {
  ASSERT_EQ(groups.size(), 3u);
  for (const auto& g : groups) {
    EXPECT_FALSE(g.group.empty());
    EXPECT_EQ(g.events, 0u);
    EXPECT_EQ(g.max_impact, 0.0);
  }
}

TEST(EmptyFrame, AnycastGroups) {
  expect_three_empty_groups(impact_by_anycast_columnar(empty_frame()));
}

TEST(EmptyFrame, AsDiversityGroups) {
  expect_three_empty_groups(impact_by_as_diversity_columnar(empty_frame()));
}

TEST(EmptyFrame, PrefixDiversityGroups) {
  expect_three_empty_groups(
      impact_by_prefix_diversity_columnar(empty_frame()));
}

TEST(EmptyFrame, FailureAttribution) {
  const auto attr = failure_attribution_columnar(empty_frame());
  EXPECT_EQ(attr.complete_failures, 0u);
  EXPECT_EQ(attr.unicast_share(), 0.0);
}

TEST(EmptyFrame, TopCompanies) {
  EXPECT_TRUE(top_companies_by_impact_columnar(empty_frame(), 10).empty());
}

TEST(EmptyFrame, MonthlyJoinedSummary) {
  EXPECT_TRUE(monthly_joined_summary_columnar(empty_frame()).empty());
}

}  // namespace
}  // namespace ddos::core
