#include "dns/wire.h"

#include <gtest/gtest.h>

#include "netsim/rng.h"

namespace ddos::dns {
namespace {

TEST(WireName, EncodeBasic) {
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(encode_name(DomainName::must("mil.ru"), out));
  const std::vector<std::uint8_t> expected = {3, 'm', 'i', 'l',
                                              2, 'r', 'u', 0};
  EXPECT_EQ(out, expected);
}

TEST(WireName, EncodeDecodeRoundTrip) {
  for (const char* name :
       {"mil.ru", "www.example.com", "a.b.c.d.e.f", "xn--90adear.xn--p1ai"}) {
    std::vector<std::uint8_t> buf;
    ASSERT_TRUE(encode_name(DomainName::must(name), buf)) << name;
    std::size_t next = 0;
    const auto decoded = decode_name(buf, 0, next);
    ASSERT_TRUE(decoded) << name;
    EXPECT_EQ(decoded->str(), name);
    EXPECT_EQ(next, buf.size());
  }
}

TEST(WireName, CompressionPointerDecodes) {
  // Message: "mil.ru" at offset 0, then a name "www" + pointer to 0.
  std::vector<std::uint8_t> msg;
  encode_name(DomainName::must("mil.ru"), msg);
  const std::size_t ptr_target = 0;
  const std::size_t second = msg.size();
  msg.push_back(3);
  msg.push_back('w');
  msg.push_back('w');
  msg.push_back('w');
  msg.push_back(0xC0 | (ptr_target >> 8));
  msg.push_back(ptr_target & 0xFF);
  std::size_t next = 0;
  const auto decoded = decode_name(msg, second, next);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->str(), "www.mil.ru");
  EXPECT_EQ(next, msg.size());
}

TEST(WireName, RejectsPointerLoop) {
  // A pointer at offset 2 pointing to offset 0, where a pointer points
  // forward — malformed either way.
  std::vector<std::uint8_t> msg = {0xC0, 0x02, 0xC0, 0x00};
  std::size_t next = 0;
  EXPECT_FALSE(decode_name(msg, 0, next));
  EXPECT_FALSE(decode_name(msg, 2, next));
}

TEST(WireName, RejectsForwardPointer) {
  const std::vector<std::uint8_t> msg = {0xC0, 0x05, 0, 0, 0, 3, 'a', 'b',
                                         'c', 0};
  std::size_t next = 0;
  EXPECT_FALSE(decode_name(msg, 0, next));
}

TEST(WireName, RejectsTruncatedLabel) {
  const std::vector<std::uint8_t> msg = {5, 'a', 'b'};
  std::size_t next = 0;
  EXPECT_FALSE(decode_name(msg, 0, next));
}

TEST(WireName, RejectsReservedLabelTypes) {
  const std::vector<std::uint8_t> msg = {0x40, 'a', 0};
  std::size_t next = 0;
  EXPECT_FALSE(decode_name(msg, 0, next));
}

TEST(WireName, RejectsBareRoot) {
  const std::vector<std::uint8_t> msg = {0};
  std::size_t next = 0;
  EXPECT_FALSE(decode_name(msg, 0, next));
}

// Fuzz-ish property: decode_name never crashes or overruns on random
// bytes, and when it succeeds the result is a valid DomainName.
class WireNameFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireNameFuzz, DecodeIsTotalOnRandomBytes) {
  netsim::Rng rng(GetParam());
  for (int i = 0; i < 20000; ++i) {
    const std::size_t len = 1 + rng.uniform_u64(64);
    std::vector<std::uint8_t> msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
    std::size_t next = 0;
    const auto decoded =
        decode_name(msg, rng.uniform_u64(len), next);
    if (decoded) {
      EXPECT_FALSE(decoded->empty());
      EXPECT_LE(next, msg.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireNameFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ddos::dns
