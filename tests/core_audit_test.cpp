#include "core/audit.h"

#include <gtest/gtest.h>

#include "scenario/world.h"

namespace ddos::core {
namespace {

using netsim::IPv4Addr;

struct Fixture {
  dns::DnsRegistry registry;
  anycast::AnycastCensus census;
  topology::PrefixTable routes;

  Fixture() {
    const auto add_ns = [&](IPv4Addr ip, topology::Asn asn,
                            bool anycast = false) {
      std::vector<dns::Site> sites;
      sites.push_back(dns::Site{"a", 50e3, 20.0, 1.0});
      if (anycast) sites.push_back(dns::Site{"b", 50e3, 20.0, 1.0});
      registry.add_nameserver(dns::Nameserver(ip, std::move(sites)));
      routes.announce(netsim::Prefix(ip, 24), asn);
    };
    add_ns(IPv4Addr(10, 0, 0, 1), 100);
    add_ns(IPv4Addr(10, 0, 0, 2), 100);   // same /24, same ASN
    add_ns(IPv4Addr(10, 0, 1, 1), 100);   // second /24, same ASN
    add_ns(IPv4Addr(20, 0, 0, 1), 200);   // second ASN
    add_ns(IPv4Addr(30, 0, 0, 1), 300, true);  // anycast
    add_ns(IPv4Addr(30, 0, 1, 1), 300, true);
    registry.add_nameserver(
        dns::Nameserver(IPv4Addr(8, 8, 8, 8), {dns::Site{"x", 1e6, 10.0, 1.0}}));
    registry.mark_open_resolver(IPv4Addr(8, 8, 8, 8));
    routes.announce(netsim::Prefix(IPv4Addr(8, 8, 8, 8), 24), 15169);
    routes.announce(netsim::Prefix(IPv4Addr(66, 0, 0, 0), 24), 666);

    anycast::CensusSnapshot snap;
    snap.taken_day = 0;
    snap.anycast_slash24.insert(IPv4Addr(30, 0, 0, 0));
    snap.anycast_slash24.insert(IPv4Addr(30, 0, 1, 0));
    census.add_snapshot(std::move(snap));
  }

  DelegationAuditor auditor() const {
    return DelegationAuditor(registry, census, routes);
  }
};

bool has_issue(const std::vector<DelegationIssue>& issues,
               DelegationIssue issue) {
  return std::find(issues.begin(), issues.end(), issue) != issues.end();
}

TEST(Audit, HealthyDelegationIsClean) {
  Fixture fx;
  const auto d = fx.registry.add_domain(
      dns::DomainName::must("ok.com"),
      {IPv4Addr(10, 0, 0, 1), IPv4Addr(10, 0, 1, 1), IPv4Addr(20, 0, 0, 1)});
  const auto issues = fx.auditor().audit_domain(d, 0);
  EXPECT_TRUE(issues.empty());
}

TEST(Audit, SingleNameserverFlagged) {
  Fixture fx;
  const auto d = fx.registry.add_domain(dns::DomainName::must("solo.com"),
                                        {IPv4Addr(10, 0, 0, 1)});
  const auto issues = fx.auditor().audit_domain(d, 0);
  EXPECT_TRUE(has_issue(issues, DelegationIssue::SingleNameserver));
  // With one NS, /24 and ASN flags are not separately reported.
  EXPECT_FALSE(has_issue(issues, DelegationIssue::SingleSlash24));
}

TEST(Audit, MilRuAntiPatternFlagged) {
  Fixture fx;
  const auto d = fx.registry.add_domain(
      dns::DomainName::must("mil.example"),
      {IPv4Addr(10, 0, 0, 1), IPv4Addr(10, 0, 0, 2)});
  const auto issues = fx.auditor().audit_domain(d, 0);
  EXPECT_TRUE(has_issue(issues, DelegationIssue::SingleSlash24));
  EXPECT_TRUE(has_issue(issues, DelegationIssue::SingleAsn));
}

TEST(Audit, PrefixDiverseSingleAsnFlagsOnlyAsn) {
  Fixture fx;
  const auto d = fx.registry.add_domain(
      dns::DomainName::must("rzd.example"),
      {IPv4Addr(10, 0, 0, 1), IPv4Addr(10, 0, 1, 1)});
  const auto issues = fx.auditor().audit_domain(d, 0);
  EXPECT_FALSE(has_issue(issues, DelegationIssue::SingleSlash24));
  EXPECT_TRUE(has_issue(issues, DelegationIssue::SingleAsn));
}

TEST(Audit, LameNameserverFlagged) {
  Fixture fx;
  const auto d = fx.registry.add_domain(
      dns::DomainName::must("stale.com"),
      {IPv4Addr(10, 0, 0, 1), IPv4Addr(66, 0, 0, 9)});  // no server at 66.x
  const auto issues = fx.auditor().audit_domain(d, 0);
  EXPECT_TRUE(has_issue(issues, DelegationIssue::LameNameserver));
}

TEST(Audit, OpenResolverFlagged) {
  Fixture fx;
  const auto d = fx.registry.add_domain(
      dns::DomainName::must("misconfig.com"),
      {IPv4Addr(8, 8, 8, 8), IPv4Addr(10, 0, 0, 1)});
  const auto issues = fx.auditor().audit_domain(d, 0);
  EXPECT_TRUE(has_issue(issues, DelegationIssue::OpenResolverAsNs));
}

TEST(Audit, SummaryCountsAndAdoption) {
  Fixture fx;
  fx.registry.add_domain(dns::DomainName::must("solo.com"),
                         {IPv4Addr(10, 0, 0, 1)});
  fx.registry.add_domain(
      dns::DomainName::must("anycast.com"),
      {IPv4Addr(30, 0, 0, 1), IPv4Addr(30, 0, 1, 1)});
  fx.registry.add_domain(
      dns::DomainName::must("partial.com"),
      {IPv4Addr(30, 0, 0, 1), IPv4Addr(10, 0, 0, 1)});
  fx.registry.add_domain(
      dns::DomainName::must("diverse.com"),
      {IPv4Addr(10, 0, 0, 1), IPv4Addr(20, 0, 0, 1)});
  std::vector<DelegationFinding> findings;
  const auto summary = fx.auditor().audit_all(0, &findings);
  EXPECT_EQ(summary.domains, 4u);
  EXPECT_EQ(summary.single_ns, 1u);
  EXPECT_EQ(summary.full_anycast, 1u);
  EXPECT_EQ(summary.partial_anycast, 1u);
  EXPECT_EQ(summary.multi_asn, 2u);  // partial.com (300/100) + diverse.com
  EXPECT_EQ(summary.multi_prefix, 3u);
  EXPECT_FALSE(findings.empty());
  EXPECT_DOUBLE_EQ(summary.share(summary.single_ns), 0.25);
}

TEST(Audit, SyntheticWorldPlantsFindableMisconfigurations) {
  scenario::WorldParams params = scenario::small_world_params(23);
  params.domain_count = 6000;
  params.provider_count = 80;
  const auto world = scenario::build_world(params);
  const DelegationAuditor auditor(world->registry, world->census,
                                  world->routes);
  const auto summary = auditor.audit_all(100);
  EXPECT_EQ(summary.domains, 6000u);
  EXPECT_GT(summary.single_ns, 20u);            // ~1.5% planted
  EXPECT_GT(summary.with_lame_ns, 5u);          // ~0.4% planted
  EXPECT_GT(summary.with_open_resolver_ns, 5u); // misconfig knob
  EXPECT_GT(summary.full_anycast, summary.domains / 5);  // adoption skew
  EXPECT_GT(summary.multi_prefix, summary.domains / 3);
}

}  // namespace
}  // namespace ddos::core
