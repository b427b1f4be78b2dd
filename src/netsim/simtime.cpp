#include "netsim/simtime.h"

#include <array>
#include <cstdio>

namespace ddos::netsim {

namespace {

constexpr bool is_leap(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

// Days from 2020-11-01 to the first of (year, month). Works by walking
// months; the simulated range is small so this is never hot.
std::int64_t days_from_epoch_to_month(int year, int month) {
  std::int64_t days = 0;
  int y = 2020, m = 11;
  while (y < year || (y == year && m < month)) {
    days += days_in_month(y, m);
    next_month(y, m);
  }
  // Also support (year, month) before the epoch by walking backwards.
  y = 2020;
  m = 11;
  while (y > year || (y == year && m > month)) {
    int py = y, pm = m;
    if (--pm == 0) {
      pm = 12;
      --py;
    }
    days -= days_in_month(py, pm);
    y = py;
    m = pm;
  }
  return days;
}

}  // namespace

int days_in_month(int year, int month) {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month == 2 && is_leap(year)) return 29;
  return kDays[static_cast<std::size_t>(month - 1)];
}

void next_month(int& year, int& month) {
  if (++month == 13) {
    month = 1;
    ++year;
  }
}

DayIndex month_start_day(int year, int month) {
  return days_from_epoch_to_month(year, month);
}

SimTime SimTime::from_utc(int year, int month, int day, int hour, int minute,
                          int second) {
  const std::int64_t days = days_from_epoch_to_month(year, month) + (day - 1);
  return SimTime(days * kSecondsPerDay + hour * kSecondsPerHour +
                 minute * kSecondsPerMinute + second);
}

void day_to_ymd(DayIndex day, int& year, int& month, int& dom) {
  year = 2020;
  month = 11;
  std::int64_t remaining = day;
  while (remaining >= days_in_month(year, month)) {
    remaining -= days_in_month(year, month);
    next_month(year, month);
  }
  while (remaining < 0) {
    int py = year, pm = month;
    if (--pm == 0) {
      pm = 12;
      --py;
    }
    remaining += days_in_month(py, pm);
    year = py;
    month = pm;
  }
  dom = static_cast<int>(remaining) + 1;
}

std::string SimTime::to_string() const {
  int year = 0, month = 0, dom = 0;
  day_to_ymd(day(), year, month, dom);
  const std::int64_t sod = second_of_day();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", year, month,
                dom, static_cast<int>(sod / kSecondsPerHour),
                static_cast<int>((sod / 60) % 60), static_cast<int>(sod % 60));
  return buf;
}

}  // namespace ddos::netsim
