#include "dns/registry.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ddos::dns {
namespace {

using netsim::IPv4Addr;

Nameserver ns_at(IPv4Addr ip) {
  return Nameserver(ip, {Site{"x", 50e3, 20.0, 1.0}});
}

TEST(DnsRegistry, NameserverLifecycle) {
  DnsRegistry reg;
  EXPECT_FALSE(reg.has_nameserver(IPv4Addr(1, 1, 1, 1)));
  reg.add_nameserver(ns_at(IPv4Addr(1, 1, 1, 1)));
  EXPECT_TRUE(reg.has_nameserver(IPv4Addr(1, 1, 1, 1)));
  EXPECT_EQ(reg.nameserver(IPv4Addr(1, 1, 1, 1)).ip(), IPv4Addr(1, 1, 1, 1));
  EXPECT_THROW(reg.nameserver(IPv4Addr(2, 2, 2, 2)), std::out_of_range);
  EXPECT_THROW(reg.mutable_nameserver(IPv4Addr(2, 2, 2, 2)),
               std::out_of_range);
  EXPECT_EQ(reg.nameserver_count(), 1u);
}

TEST(DnsRegistry, DomainsShareNssetWhenIpsMatch) {
  DnsRegistry reg;
  const IPv4Addr a(1, 0, 0, 1), b(1, 0, 0, 2);
  const DomainId d1 = reg.add_domain(DomainName::must("x.com"), {a, b});
  const DomainId d2 = reg.add_domain(DomainName::must("y.com"), {b, a});
  const DomainId d3 = reg.add_domain(DomainName::must("z.com"), {a});
  EXPECT_EQ(reg.nsset_of_domain(d1), reg.nsset_of_domain(d2));
  EXPECT_NE(reg.nsset_of_domain(d1), reg.nsset_of_domain(d3));
  EXPECT_EQ(reg.nsset_count(), 2u);
  EXPECT_EQ(reg.domain_count(), 3u);
}

TEST(DnsRegistry, NssetKeyIsSortedUnique) {
  DnsRegistry reg;
  const DomainId d = reg.add_domain(
      DomainName::must("x.com"),
      {IPv4Addr(2, 0, 0, 2), IPv4Addr(1, 0, 0, 1), IPv4Addr(2, 0, 0, 2)});
  const auto& key = reg.nsset_key(reg.nsset_of_domain(d));
  ASSERT_EQ(key.ips.size(), 2u);
  EXPECT_LT(key.ips[0], key.ips[1]);
}

TEST(DnsRegistry, EmptyNsSetRejected) {
  DnsRegistry reg;
  EXPECT_THROW(reg.add_domain(DomainName::must("x.com"), {}),
               std::invalid_argument);
}

TEST(DnsRegistry, DomainsOfNsset) {
  DnsRegistry reg;
  const IPv4Addr a(1, 0, 0, 1);
  const DomainId d1 = reg.add_domain(DomainName::must("x.com"), {a});
  const DomainId d2 = reg.add_domain(DomainName::must("y.com"), {a});
  const auto doms = reg.domains_of_nsset(reg.nsset_of_domain(d1));
  ASSERT_EQ(doms.size(), 2u);
  EXPECT_EQ(doms[0], d1);
  EXPECT_EQ(doms[1], d2);
}

TEST(DnsRegistry, NssetsContainingIp) {
  DnsRegistry reg;
  const IPv4Addr shared(1, 0, 0, 1);
  reg.add_domain(DomainName::must("x.com"), {shared, IPv4Addr(1, 0, 0, 2)});
  reg.add_domain(DomainName::must("y.com"), {shared, IPv4Addr(1, 0, 0, 3)});
  reg.add_domain(DomainName::must("z.com"), {IPv4Addr(9, 9, 9, 9)});
  EXPECT_EQ(reg.nssets_containing(shared).size(), 2u);
  EXPECT_EQ(reg.nssets_containing(IPv4Addr(9, 9, 9, 9)).size(), 1u);
  EXPECT_TRUE(reg.nssets_containing(IPv4Addr(8, 8, 8, 8)).empty());
}

TEST(DnsRegistry, DomainsOfNsIpUnionsNssets) {
  DnsRegistry reg;
  const IPv4Addr shared(1, 0, 0, 1);
  reg.add_domain(DomainName::must("x.com"), {shared, IPv4Addr(1, 0, 0, 2)});
  reg.add_domain(DomainName::must("y.com"), {shared});
  reg.add_domain(DomainName::must("z.com"), {shared});
  const auto doms = reg.domains_of_ns_ip(shared);
  EXPECT_EQ(doms.size(), 3u);
  EXPECT_TRUE(reg.domains_of_ns_ip(IPv4Addr(7, 7, 7, 7)).empty());
}

TEST(DnsRegistry, AllNsIps) {
  DnsRegistry reg;
  reg.add_domain(DomainName::must("x.com"),
                 {IPv4Addr(1, 0, 0, 1), IPv4Addr(1, 0, 0, 2)});
  reg.add_domain(DomainName::must("y.com"), {IPv4Addr(1, 0, 0, 1)});
  auto ips = reg.all_ns_ips();
  std::sort(ips.begin(), ips.end());
  ASSERT_EQ(ips.size(), 2u);
  EXPECT_TRUE(reg.is_ns_ip(IPv4Addr(1, 0, 0, 1)));
  EXPECT_FALSE(reg.is_ns_ip(IPv4Addr(5, 5, 5, 5)));
}

TEST(DnsRegistry, OpenResolverRegistry) {
  DnsRegistry reg;
  const IPv4Addr google(8, 8, 8, 8);
  EXPECT_FALSE(reg.is_open_resolver(google));
  reg.mark_open_resolver(google);
  EXPECT_TRUE(reg.is_open_resolver(google));
  EXPECT_EQ(reg.open_resolver_count(), 1u);
  reg.mark_open_resolver(google);  // idempotent
  EXPECT_EQ(reg.open_resolver_count(), 1u);
}

TEST(DnsRegistry, DomainNameLookup) {
  DnsRegistry reg;
  const DomainId d = reg.add_domain(DomainName::must("mil.ru"),
                                    {IPv4Addr(1, 0, 0, 1)});
  EXPECT_EQ(reg.domain_name(d).str(), "mil.ru");
  EXPECT_THROW(reg.domain_name(999), std::out_of_range);
}

TEST(DnsRegistry, IterationBounds) {
  DnsRegistry reg;
  EXPECT_EQ(reg.first_domain(), reg.end_domain());
  reg.add_domain(DomainName::must("a.com"), {IPv4Addr(1, 0, 0, 1)});
  reg.add_domain(DomainName::must("b.com"), {IPv4Addr(1, 0, 0, 1)});
  EXPECT_EQ(reg.end_domain() - reg.first_domain(), 2u);
}

}  // namespace
}  // namespace ddos::dns
