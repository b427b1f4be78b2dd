#include "netsim/simtime.h"

#include <gtest/gtest.h>

namespace ddos::netsim {
namespace {

TEST(SimTime, EpochIsStartOfObservationWindow) {
  const SimTime t = SimTime::from_utc(2020, 11, 1, 0, 0, 0);
  EXPECT_EQ(t.seconds(), 0);
  EXPECT_EQ(t.day(), 0);
  EXPECT_EQ(t.window(), 0);
}

TEST(SimTime, KnownDates) {
  // 2020-11 has 30 days.
  EXPECT_EQ(SimTime::from_utc(2020, 12, 1).day(), 30);
  // End of the paper's window: 2022-03-31 is day 515.
  EXPECT_EQ(SimTime::from_utc(2022, 3, 31).day(), 515);
}

TEST(SimTime, LeapYearFebruary2024HasNoEffectBefore) {
  // 2021 is not a leap year; Feb has 28 days.
  EXPECT_EQ(days_in_month(2021, 2), 28);
  EXPECT_EQ(days_in_month(2024, 2), 29);
  EXPECT_EQ(days_in_month(2000, 2), 29);
  EXPECT_EQ(days_in_month(2100, 2), 28);
}

TEST(SimTime, WindowArithmetic) {
  const SimTime t = SimTime::from_utc(2020, 11, 1, 0, 5, 0);
  EXPECT_EQ(t.window(), 1);
  EXPECT_EQ(SimTime::from_utc(2020, 11, 1, 0, 4, 59).window(), 0);
  EXPECT_EQ(kWindowsPerDay, 288);
  EXPECT_EQ(SimTime::from_utc(2020, 11, 2).window(), 288);
}

TEST(SimTime, NegativeTimesFloorCorrectly) {
  // One second before the epoch belongs to day -1 / window -1.
  const SimTime t(-1);
  EXPECT_EQ(t.day(), -1);
  EXPECT_EQ(t.window(), -1);
  EXPECT_EQ(t.second_of_day(), kSecondsPerDay - 1);
}

TEST(SimTime, ToStringFormatsUtc) {
  const SimTime t = SimTime::from_utc(2020, 12, 1, 8, 0, 0);
  EXPECT_EQ(t.to_string(), "2020-12-01 08:00:00");
}

TEST(SimTime, TransIPAttackTimestamps) {
  // The December attack started 2020-11-30 22:00 UTC (§5.1).
  const SimTime start = SimTime::from_utc(2020, 11, 30, 22, 0, 0);
  EXPECT_EQ(start.to_string(), "2020-11-30 22:00:00");
  EXPECT_EQ(start.day(), 29);
  const SimTime end = SimTime::from_utc(2020, 12, 1, 0, 0, 0);
  EXPECT_EQ(end - start, 2 * kSecondsPerHour);
}

TEST(SimTime, DayToYmdRoundTrip) {
  for (DayIndex d : {DayIndex{0}, DayIndex{30}, DayIndex{59}, DayIndex{365},
                     DayIndex{515}}) {
    int y = 0, m = 0, dom = 0;
    day_to_ymd(d, y, m, dom);
    EXPECT_EQ(SimTime::from_utc(y, m, dom).day(), d);
  }
}

TEST(SimTime, DayToYmdNegative) {
  int y = 0, m = 0, dom = 0;
  day_to_ymd(-1, y, m, dom);
  EXPECT_EQ(y, 2020);
  EXPECT_EQ(m, 10);
  EXPECT_EQ(dom, 31);
}

TEST(SimTime, MonthStartDay) {
  EXPECT_EQ(month_start_day(2020, 11), 0);
  EXPECT_EQ(month_start_day(2020, 12), 30);
  EXPECT_EQ(month_start_day(2021, 1), 61);
  EXPECT_EQ(month_start_day(2022, 3), 485);
}

TEST(SimTime, NextMonthWraps) {
  int y = 2021, m = 12;
  next_month(y, m);
  EXPECT_EQ(y, 2022);
  EXPECT_EQ(m, 1);
}

TEST(SimTime, WindowStartInverse) {
  const WindowIndex w = 12345;
  EXPECT_EQ(window_start(w).window(), w);
  EXPECT_EQ(day_start(100).day(), 100);
}

TEST(SimTime, ComparisonAndArithmetic) {
  const SimTime a(100), b(200);
  EXPECT_LT(a, b);
  EXPECT_EQ((a + 100), b);
  EXPECT_EQ(b - a, 100);
  EXPECT_EQ((b - 50).seconds(), 150);
}

}  // namespace
}  // namespace ddos::netsim
