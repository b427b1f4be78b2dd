#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace ddos::util {
namespace {

FlagParser make_parser() {
  FlagParser flags("test tool");
  flags.add_string("name", "default", "a string");
  flags.add_uint("count", 7, "a uint");
  flags.add_double("scale", 1.5, "a double");
  flags.add_bool("verbose", "a bool");
  return flags;
}

TEST(Flags, DefaultsApply) {
  auto flags = make_parser();
  ASSERT_TRUE(flags.parse({}));
  EXPECT_EQ(flags.get_string("name"), "default");
  EXPECT_EQ(flags.get_uint("count"), 7u);
  EXPECT_DOUBLE_EQ(flags.get_double("scale"), 1.5);
  EXPECT_FALSE(flags.get_bool("verbose"));
}

TEST(Flags, SpaceSeparatedValues) {
  auto flags = make_parser();
  ASSERT_TRUE(flags.parse({"--name", "mil.ru", "--count", "42"}));
  EXPECT_EQ(flags.get_string("name"), "mil.ru");
  EXPECT_EQ(flags.get_uint("count"), 42u);
}

TEST(Flags, EqualsSyntaxAndBool) {
  auto flags = make_parser();
  ASSERT_TRUE(flags.parse({"--scale=2.25", "--verbose"}));
  EXPECT_DOUBLE_EQ(flags.get_double("scale"), 2.25);
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, PositionalArguments) {
  auto flags = make_parser();
  ASSERT_TRUE(flags.parse({"run", "--count", "3", "extra"}));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(Flags, UnknownFlagFails) {
  auto flags = make_parser();
  EXPECT_FALSE(flags.parse({"--bogus", "1"}));
  EXPECT_NE(flags.error().find("unknown flag"), std::string::npos);
}

TEST(Flags, UnknownFlagErrorListsValidFlags) {
  auto flags = make_parser();
  EXPECT_FALSE(flags.parse({"--prgress"}));  // typo must fail loudly
  const std::string& err = flags.error();
  EXPECT_NE(err.find("unknown flag --prgress"), std::string::npos);
  EXPECT_NE(err.find("valid flags:"), std::string::npos);
  EXPECT_NE(err.find("--count"), std::string::npos);
  EXPECT_NE(err.find("--name"), std::string::npos);
  EXPECT_NE(err.find("--scale"), std::string::npos);
  EXPECT_NE(err.find("--verbose"), std::string::npos);

  // The =value syntax reports the same listing.
  auto flags2 = make_parser();
  EXPECT_FALSE(flags2.parse({"--bogus=3"}));
  EXPECT_NE(flags2.error().find("valid flags:"), std::string::npos);
}

TEST(Flags, MissingValueFails) {
  auto flags = make_parser();
  EXPECT_FALSE(flags.parse({"--count"}));
  EXPECT_NE(flags.error().find("requires a value"), std::string::npos);
}

TEST(Flags, TypeValidation) {
  auto flags = make_parser();
  EXPECT_FALSE(flags.parse({"--count", "abc"}));
  auto flags2 = make_parser();
  EXPECT_FALSE(flags2.parse({"--scale", "xyz"}));
  auto flags3 = make_parser();
  EXPECT_FALSE(flags3.parse({"--verbose=maybe"}));
  auto flags4 = make_parser();
  EXPECT_TRUE(flags4.parse({"--verbose=true"}));
  EXPECT_TRUE(flags4.get_bool("verbose"));
}

TEST(Flags, HelpRequested) {
  auto flags = make_parser();
  ASSERT_TRUE(flags.parse({"--help"}));
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.usage().find("--count"), std::string::npos);
  EXPECT_NE(flags.usage().find("a double"), std::string::npos);
}

TEST(Flags, UintRangeValidation) {
  FlagParser flags("test tool");
  flags.add_uint("threads", 4, "worker threads", 1, 4096);
  ASSERT_TRUE(flags.parse({}));
  EXPECT_EQ(flags.get_uint("threads"), 4u);

  FlagParser ok("test tool");
  ok.add_uint("threads", 4, "worker threads", 1, 4096);
  ASSERT_TRUE(ok.parse({"--threads", "8"}));
  EXPECT_EQ(ok.get_uint("threads"), 8u);

  // Zero is below the range: clear error naming the accepted interval.
  FlagParser zero("test tool");
  zero.add_uint("threads", 4, "worker threads", 1, 4096);
  EXPECT_FALSE(zero.parse({"--threads", "0"}));
  EXPECT_NE(zero.error().find("unsigned integer in [1, 4096]"),
            std::string::npos);

  FlagParser over("test tool");
  over.add_uint("threads", 4, "worker threads", 1, 4096);
  EXPECT_FALSE(over.parse({"--threads", "5000"}));

  FlagParser garbage("test tool");
  garbage.add_uint("threads", 4, "worker threads", 1, 4096);
  EXPECT_FALSE(garbage.parse({"--threads", "lots"}));
  EXPECT_NE(garbage.error().find("got 'lots'"), std::string::npos);

  // Anything but a plain decimal integer in range fails the same way.
  for (const char* bad : {"-2", "-5", "2000.9", "1e3", "4097", ""}) {
    FlagParser flags("test tool");
    flags.add_uint("threads", 4, "worker threads", 1, 4096);
    EXPECT_FALSE(flags.parse({"--threads", bad})) << bad;
    EXPECT_NE(flags.error().find("flag --threads expects an unsigned integer "
                                 "in [1, 4096]"),
              std::string::npos)
        << flags.error();
  }
}

TEST(Flags, NegativeAndScientificNumbers) {
  // Doubles take either form; unsigned integers take neither (see
  // UintRangeValidation).
  auto flags = make_parser();
  ASSERT_TRUE(flags.parse({"--scale", "-3e2"}));
  EXPECT_DOUBLE_EQ(flags.get_double("scale"), -300.0);
}

TEST(Flags, UintHoldsTheFullRangeExactly) {
  // 2^53 + 1 is the first integer a double cannot hold.
  for (const std::uint64_t v :
       {std::uint64_t{9007199254740992u}, std::uint64_t{9007199254740993u},
        std::uint64_t{9223372036854775808u}, UINT64_MAX}) {
    auto flags = make_parser();
    ASSERT_TRUE(flags.parse({"--count", std::to_string(v)})) << v;
    EXPECT_EQ(flags.get_uint("count"), v);
  }
  auto overflow = make_parser();
  EXPECT_FALSE(overflow.parse({"--count=18446744073709551616"}));
}

TEST(Flags, EqualsFormParsesEveryType) {
  FlagParser flags("test tool");
  flags.add_string("name", "default", "a string");
  flags.add_uint("count", 1, "a uint");
  flags.add_uint("threads", 2, "a bounded uint", 1, 64);
  flags.add_double("scale", 1.0, "a double");
  flags.add_bool("verbose", "a bool");
  ASSERT_TRUE(flags.parse({"--name=run7", "--count=3", "--threads=8",
                           "--scale=2.5", "--verbose=true"}))
      << flags.error();
  EXPECT_EQ(flags.get_string("name"), "run7");
  EXPECT_EQ(flags.get_uint("count"), 3u);
  EXPECT_EQ(flags.get_uint("threads"), 8u);
  EXPECT_DOUBLE_EQ(flags.get_double("scale"), 2.5);
  EXPECT_TRUE(flags.get_bool("verbose"));

  // The space-separated and = forms are interchangeable per flag.
  FlagParser mixed("test tool");
  mixed.add_uint("interval-ms", 250, "sampling cadence", 10, 60000);
  mixed.add_double("timeout-s", 0.0, "watchdog timeout", 0.0, 86400.0);
  ASSERT_TRUE(mixed.parse({"--interval-ms=50", "--timeout-s", "30"}));
  EXPECT_EQ(mixed.get_uint("interval-ms"), 50u);
  EXPECT_DOUBLE_EQ(mixed.get_double("timeout-s"), 30.0);
}

TEST(Flags, DoubleRangeValidation) {
  const auto make = [] {
    FlagParser flags("test tool");
    flags.add_double("timeout-s", 60.0, "watchdog timeout", 0.0, 86400.0);
    return flags;
  };
  auto defaults = make();
  ASSERT_TRUE(defaults.parse({}));
  EXPECT_DOUBLE_EQ(defaults.get_double("timeout-s"), 60.0);

  auto ok = make();
  ASSERT_TRUE(ok.parse({"--timeout-s=0"}));  // inclusive bounds
  EXPECT_DOUBLE_EQ(ok.get_double("timeout-s"), 0.0);

  // Out of range: the error names the accepted interval.
  auto below = make();
  EXPECT_FALSE(below.parse({"--timeout-s=-1"}));
  EXPECT_NE(below.error().find("in [0.000000, 86400.000000]"),
            std::string::npos)
      << below.error();

  auto above = make();
  EXPECT_FALSE(above.parse({"--timeout-s", "90000"}));

  auto garbage = make();
  EXPECT_FALSE(garbage.parse({"--timeout-s=soon"}));
  EXPECT_NE(garbage.error().find("got 'soon'"), std::string::npos);

  // Unbounded flags still accept any finite number.
  FlagParser unbounded("test tool");
  unbounded.add_double("offset", 0.0, "free range");
  ASSERT_TRUE(unbounded.parse({"--offset=-1e9"}));
  EXPECT_DOUBLE_EQ(unbounded.get_double("offset"), -1e9);
}

}  // namespace
}  // namespace ddos::util
