#include <gtest/gtest.h>

#include "netsim/rng.h"
#include "topology/as_registry.h"
#include "topology/prefix_table.h"

namespace ddos::topology {
namespace {

using netsim::IPv4Addr;
using netsim::Prefix;

TEST(AsRegistry, AddAndLookup) {
  AsRegistry reg;
  EXPECT_TRUE(reg.add(AsInfo{15169, "Google", "US"}));
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.org_of(15169), "Google");
  EXPECT_EQ(reg.country_of(15169), "US");
}

TEST(AsRegistry, UnknownLookups) {
  const AsRegistry reg;
  EXPECT_EQ(reg.org_of(1), "");
  EXPECT_EQ(reg.country_of(1), "");
  EXPECT_EQ(reg.size(), 0u);
}

TEST(AsRegistry, UpdateReportsConflict) {
  AsRegistry reg;
  reg.add(AsInfo{100, "OrgA", "NL"});
  EXPECT_FALSE(reg.add(AsInfo{100, "OrgB", "NL"}));  // conflict flagged
  EXPECT_EQ(reg.org_of(100), "OrgB");                // but applied
  EXPECT_TRUE(reg.add(AsInfo{100, "OrgB", "DE"}));   // same org: no conflict
}

TEST(PrefixTable, EmptyLookupIsNull) {
  PrefixTable table;
  EXPECT_FALSE(table.lookup(IPv4Addr(1, 2, 3, 4)));
  EXPECT_EQ(table.origin_of(IPv4Addr(1, 2, 3, 4)), 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(PrefixTable, BasicAnnounceLookup) {
  PrefixTable table;
  table.announce(Prefix(IPv4Addr(10, 0, 0, 0), 8), 65001);
  EXPECT_EQ(table.origin_of(IPv4Addr(10, 9, 8, 7)), 65001u);
  EXPECT_EQ(table.origin_of(IPv4Addr(11, 0, 0, 1)), 0u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(PrefixTable, LongestPrefixWins) {
  PrefixTable table;
  table.announce(Prefix(IPv4Addr(10, 0, 0, 0), 8), 1);
  table.announce(Prefix(IPv4Addr(10, 1, 0, 0), 16), 2);
  table.announce(Prefix(IPv4Addr(10, 1, 2, 0), 24), 3);
  EXPECT_EQ(table.origin_of(IPv4Addr(10, 1, 2, 3)), 3u);
  EXPECT_EQ(table.origin_of(IPv4Addr(10, 1, 9, 9)), 2u);
  EXPECT_EQ(table.origin_of(IPv4Addr(10, 9, 9, 9)), 1u);
  const auto entry = table.lookup(IPv4Addr(10, 1, 2, 3));
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry->prefix, Prefix(IPv4Addr(10, 1, 2, 0), 24));
}

TEST(PrefixTable, ReannounceReplacesOrigin) {
  PrefixTable table;
  const Prefix p(IPv4Addr(192, 0, 2, 0), 24);
  table.announce(p, 1);
  table.announce(p, 2);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.origin_of(IPv4Addr(192, 0, 2, 55)), 2u);
}

TEST(PrefixTable, DefaultRouteMatchesEverything) {
  PrefixTable table;
  table.announce(Prefix(IPv4Addr(0), 0), 99);
  EXPECT_EQ(table.origin_of(IPv4Addr(1, 2, 3, 4)), 99u);
  EXPECT_EQ(table.origin_of(IPv4Addr(255, 255, 255, 255)), 99u);
}

TEST(PrefixTable, HostRoutes) {
  PrefixTable table;
  table.announce(Prefix(IPv4Addr(8, 8, 8, 8), 32), 15169);
  EXPECT_EQ(table.origin_of(IPv4Addr(8, 8, 8, 8)), 15169u);
  EXPECT_EQ(table.origin_of(IPv4Addr(8, 8, 8, 9)), 0u);
}

// Property: LPM result equals brute-force over announced entries.
class LpmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmProperty, MatchesBruteForce) {
  netsim::Rng rng(GetParam());
  PrefixTable table;
  std::vector<RouteEntry> announced;
  for (int i = 0; i < 200; ++i) {
    const IPv4Addr addr(static_cast<std::uint32_t>(rng.next_u64()));
    const int len = static_cast<int>(8 + rng.uniform_u64(17));  // 8..24
    const Prefix p(addr, len);
    const Asn asn = static_cast<Asn>(1 + rng.uniform_u64(1000));
    table.announce(p, asn);
    // Mirror replacement semantics in the brute-force list.
    bool replaced = false;
    for (auto& e : announced) {
      if (e.prefix == p) {
        e.origin = asn;
        replaced = true;
      }
    }
    if (!replaced) announced.push_back(RouteEntry{p, asn});
  }
  for (int i = 0; i < 2000; ++i) {
    const IPv4Addr q(static_cast<std::uint32_t>(rng.next_u64()));
    const RouteEntry* best = nullptr;
    for (const auto& e : announced) {
      if (e.prefix.contains(q) &&
          (!best || e.prefix.length() > best->prefix.length())) {
        best = &e;
      }
    }
    const auto got = table.lookup(q);
    if (!best) {
      EXPECT_FALSE(got);
    } else {
      ASSERT_TRUE(got);
      EXPECT_EQ(got->origin, best->origin);
      EXPECT_EQ(got->prefix.length(), best->prefix.length());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmProperty, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ddos::topology
