#include "netsim/ipv4.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace ddos::netsim {
namespace {

TEST(IPv4Addr, OctetConstructionAndFormat) {
  const IPv4Addr a(8, 8, 4, 4);
  EXPECT_EQ(a.to_string(), "8.8.4.4");
  EXPECT_EQ(a.value(), 0x08080404u);
}

TEST(IPv4Addr, ParseValid) {
  const auto a = IPv4Addr::parse("192.168.1.200");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "192.168.1.200");
  EXPECT_EQ(IPv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(IPv4Addr::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(IPv4Addr, ParseInvalid) {
  EXPECT_FALSE(IPv4Addr::parse(""));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3"));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3.4.5"));
  EXPECT_FALSE(IPv4Addr::parse("1.2.3.256"));
  EXPECT_FALSE(IPv4Addr::parse("a.b.c.d"));
  EXPECT_FALSE(IPv4Addr::parse("1..2.3"));
}

TEST(IPv4Addr, RoundTripParseFormat) {
  for (std::uint32_t v : {0u, 1u, 0x01020304u, 0xC0A80101u, 0xFFFFFFFFu}) {
    const IPv4Addr a(v);
    const auto parsed = IPv4Addr::parse(a.to_string());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->value(), v);
  }
}

TEST(IPv4Addr, Slash24Slash16) {
  const IPv4Addr a(10, 20, 30, 40);
  EXPECT_EQ(a.slash24().to_string(), "10.20.30.0");
  EXPECT_EQ(a.slash16().to_string(), "10.20.0.0");
}

TEST(IPv4Addr, Ordering) {
  EXPECT_LT(IPv4Addr(1, 0, 0, 0), IPv4Addr(2, 0, 0, 0));
  EXPECT_EQ(IPv4Addr(1, 2, 3, 4), IPv4Addr(0x01020304u));
}

TEST(IPv4Addr, HashSpreadsSequentialAddresses) {
  std::unordered_set<std::size_t> hashes;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    hashes.insert(std::hash<IPv4Addr>{}(IPv4Addr(0x0A000000u + i)));
  }
  EXPECT_EQ(hashes.size(), 1000u);  // no collisions on a small sequence
}

TEST(Prefix, NormalisesHostBits) {
  const Prefix p(IPv4Addr(1, 2, 3, 4), 24);
  EXPECT_EQ(p.network().to_string(), "1.2.3.0");
  EXPECT_EQ(p, Prefix(IPv4Addr(1, 2, 3, 200), 24));
}

TEST(Prefix, ContainsAddress) {
  const Prefix p(IPv4Addr(10, 0, 0, 0), 8);
  EXPECT_TRUE(p.contains(IPv4Addr(10, 255, 1, 2)));
  EXPECT_FALSE(p.contains(IPv4Addr(11, 0, 0, 0)));
}

TEST(Prefix, ContainsPrefix) {
  const Prefix big(IPv4Addr(10, 0, 0, 0), 8);
  const Prefix small(IPv4Addr(10, 1, 0, 0), 16);
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST(Prefix, SizeAndRange) {
  const Prefix p(IPv4Addr(192, 168, 1, 0), 24);
  EXPECT_EQ(p.size(), 256u);
  EXPECT_EQ(p.first().to_string(), "192.168.1.0");
  EXPECT_EQ(Prefix(IPv4Addr(0), 0).size(), std::uint64_t{1} << 32);
}

TEST(Prefix, UcsdTelescopeSizes) {
  // The /9 + /10 telescope covers 1/341.33 of IPv4 (~12.58M addresses).
  const Prefix p9(IPv4Addr(44, 0, 0, 0), 9);
  const Prefix p10(IPv4Addr(45, 128, 0, 0), 10);
  EXPECT_EQ(p9.size() + p10.size(), (1u << 23) + (1u << 22));
}

TEST(Prefix, LengthClamped) {
  EXPECT_EQ(Prefix(IPv4Addr(1, 2, 3, 4), 40).length(), 32);
  EXPECT_EQ(Prefix(IPv4Addr(1, 2, 3, 4), -1).length(), 0);
}

TEST(PrefixMask, Values) {
  EXPECT_EQ(prefix_mask(0), 0u);
  EXPECT_EQ(prefix_mask(8), 0xFF000000u);
  EXPECT_EQ(prefix_mask(24), 0xFFFFFF00u);
  EXPECT_EQ(prefix_mask(32), 0xFFFFFFFFu);
}

}  // namespace
}  // namespace ddos::netsim
