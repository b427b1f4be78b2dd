#include "util/strings.h"

#include <gtest/gtest.h>

namespace ddos::util {
namespace {

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("TCP", "tcp"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("tcp", "udp"));
  EXPECT_FALSE(iequals("tcp", "tcpx"));
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("MiL.Ru"), "mil.ru");
  EXPECT_EQ(to_lower("123-abc"), "123-abc");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("mil.ru", "mil"));
  EXPECT_FALSE(starts_with("mil", "mil.ru"));
}

TEST(Strings, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("12345", v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(parse_u64("  42 ", v));
  EXPECT_EQ(v, 42u);
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("12x", v));
  EXPECT_FALSE(parse_u64("-3", v));
  EXPECT_FALSE(parse_u64("99999999999999999999999", v));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("3.5", v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(parse_double("-1e3", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("", v));
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(4039485), "4,039,485");
  EXPECT_EQ(with_commas(1022102), "1,022,102");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.5, 1), "-1.5");
}

TEST(Strings, FormatBps) {
  EXPECT_EQ(format_bps(1.4e9), "1.40 Gbps");
  EXPECT_EQ(format_bps(247e6), "247 Mbps");
  EXPECT_EQ(format_bps(500.0), "500 bps");
}

TEST(Strings, FormatCount) {
  EXPECT_EQ(format_count(5790000), "5.79M");
  EXPECT_EQ(format_count(21800), "21.8K");
  EXPECT_EQ(format_count(7e6), "7M");
  EXPECT_EQ(format_count(950), "950");
}

}  // namespace
}  // namespace ddos::util
