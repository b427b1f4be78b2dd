// Simulation time. The paper's whole pipeline is keyed on two granularities:
// 5-minute tumbling windows (RSDoS feed, NSSet aggregation) and UTC days
// (OpenINTEL sweeps, previous-day joins). We model time as seconds since a
// simulation epoch that corresponds to 2020-11-01 00:00:00 UTC, the start of
// the paper's 17-month observation window.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace ddos::netsim {

inline constexpr std::int64_t kSecondsPerMinute = 60;
inline constexpr std::int64_t kSecondsPerWindow = 300;   // 5-minute windows
inline constexpr std::int64_t kSecondsPerHour = 3600;
inline constexpr std::int64_t kSecondsPerDay = 86400;
inline constexpr std::int64_t kWindowsPerDay = kSecondsPerDay / kSecondsPerWindow;

/// Index of a 5-minute tumbling window since the simulation epoch.
using WindowIndex = std::int64_t;
/// Index of a UTC day since the simulation epoch (day 0 = 2020-11-01).
using DayIndex = std::int64_t;

/// A point in simulated time, seconds since epoch 2020-11-01T00:00:00Z.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t seconds) : s_(seconds) {}

  constexpr std::int64_t seconds() const { return s_; }
  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr WindowIndex window() const { return floor_div(s_, kSecondsPerWindow); }
  constexpr DayIndex day() const { return floor_div(s_, kSecondsPerDay); }
  constexpr std::int64_t second_of_day() const {
    return s_ - day() * kSecondsPerDay;
  }

  constexpr SimTime operator+(std::int64_t secs) const { return SimTime(s_ + secs); }
  constexpr SimTime operator-(std::int64_t secs) const { return SimTime(s_ - secs); }
  constexpr std::int64_t operator-(SimTime other) const { return s_ - other.s_; }

  /// Construct from calendar fields of a window-start, via the proleptic
  /// Gregorian calendar (valid for the simulated 2020-2022 range and beyond).
  static SimTime from_utc(int year, int month, int day, int hour = 0,
                          int minute = 0, int second = 0);

  /// "2020-12-01 08:00:00" (UTC).
  std::string to_string() const;

 private:
  static constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
    return (a >= 0) ? a / b : -((-a + b - 1) / b);
  }
  std::int64_t s_ = 0;
};

/// First second of a window / day.
constexpr SimTime window_start(WindowIndex w) {
  return SimTime(w * kSecondsPerWindow);
}
constexpr SimTime day_start(DayIndex d) { return SimTime(d * kSecondsPerDay); }

/// Number of days in (year, month); Gregorian rules.
int days_in_month(int year, int month);

/// Day index (since 2020-11-01) of the first day of (year, month).
/// (year, month) must be >= 2020-11.
DayIndex month_start_day(int year, int month);

/// Inclusive month sequence helper: advances (year, month) by one month.
void next_month(int& year, int& month);

/// Decompose a DayIndex into calendar (year, month, day-of-month).
void day_to_ymd(DayIndex day, int& year, int& month, int& dom);

}  // namespace ddos::netsim
