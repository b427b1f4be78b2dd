#include "dns/records.h"

#include <gtest/gtest.h>

namespace ddos::dns {
namespace {

using netsim::IPv4Addr;

TEST(NSSetKey, DeduplicatesAndSorts) {
  const auto key = NSSetKey::from_ips(
      {IPv4Addr(2, 2, 2, 2), IPv4Addr(1, 1, 1, 1), IPv4Addr(2, 2, 2, 2)});
  ASSERT_EQ(key.ips.size(), 2u);
  EXPECT_EQ(key.ips[0], IPv4Addr(1, 1, 1, 1));
  EXPECT_EQ(key.ips[1], IPv4Addr(2, 2, 2, 2));
}

TEST(NSSetKey, OrderInsensitiveEquality) {
  const auto a = NSSetKey::from_ips({IPv4Addr(1, 0, 0, 1), IPv4Addr(2, 0, 0, 2)});
  const auto b = NSSetKey::from_ips({IPv4Addr(2, 0, 0, 2), IPv4Addr(1, 0, 0, 1)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::hash<NSSetKey>{}(a), std::hash<NSSetKey>{}(b));
}

TEST(NSSetKey, DifferentSetsDiffer) {
  const auto a = NSSetKey::from_ips({IPv4Addr(1, 0, 0, 1)});
  const auto b = NSSetKey::from_ips({IPv4Addr(1, 0, 0, 2)});
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace ddos::dns
