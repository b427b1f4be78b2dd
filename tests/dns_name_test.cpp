#include "dns/name.h"

#include <gtest/gtest.h>

namespace ddos::dns {
namespace {

TEST(DomainName, ParseNormalisesCase) {
  const auto d = DomainName::parse("MiL.Ru");
  ASSERT_TRUE(d);
  EXPECT_EQ(d->str(), "mil.ru");
}

TEST(DomainName, ParseStripsTrailingDot) {
  EXPECT_EQ(DomainName::parse("mil.ru.")->str(), "mil.ru");
}

TEST(DomainName, RejectsInvalid) {
  EXPECT_FALSE(DomainName::parse(""));
  EXPECT_FALSE(DomainName::parse("."));
  EXPECT_FALSE(DomainName::parse("a..b"));
  EXPECT_FALSE(DomainName::parse(".leading"));
  EXPECT_FALSE(DomainName::parse("has space.com"));
  EXPECT_FALSE(DomainName::parse("bad!char.com"));
  // Label longer than 63 octets.
  EXPECT_FALSE(DomainName::parse(std::string(64, 'a') + ".com"));
  EXPECT_TRUE(DomainName::parse(std::string(63, 'a') + ".com"));
  // Total longer than 253 octets.
  std::string long_name;
  for (int i = 0; i < 42; ++i) long_name += "abcde.";
  long_name += "toolong";
  EXPECT_FALSE(DomainName::parse(long_name));
}

TEST(DomainName, AcceptsUnderscoreAndDigits) {
  EXPECT_TRUE(DomainName::parse("_dmarc.example.com"));
  EXPECT_TRUE(DomainName::parse("8.8.8.8.in-addr.arpa"));
}

TEST(DomainName, MustThrowsOnInvalid) {
  EXPECT_THROW(DomainName::must("bad name"), std::invalid_argument);
  EXPECT_NO_THROW(DomainName::must("rzd.ru"));
}

TEST(DomainName, Labels) {
  const auto d = DomainName::must("www.mil.ru");
  const auto lbls = d.labels();
  ASSERT_EQ(lbls.size(), 3u);
  EXPECT_EQ(lbls[0], "www");
  EXPECT_EQ(lbls[1], "mil");
  EXPECT_EQ(lbls[2], "ru");
}

TEST(DomainName, Tld) {
  EXPECT_EQ(DomainName::must("www.mil.ru").tld(), "ru");
  EXPECT_EQ(DomainName::must("example.nl").tld(), "nl");
  EXPECT_EQ(DomainName::must("localhost").tld(), "localhost");
}

TEST(DomainName, OrderingAndHash) {
  const auto a = DomainName::must("a.com");
  const auto b = DomainName::must("b.com");
  EXPECT_LT(a, b);
  EXPECT_EQ(std::hash<DomainName>{}(a),
            std::hash<DomainName>{}(DomainName::must("A.COM")));
}

}  // namespace
}  // namespace ddos::dns
