#include "core/impact.h"

#include <gtest/gtest.h>

namespace ddos::core {
namespace {

openintel::Aggregate agg_with_rtts(std::initializer_list<double> rtts,
                                   std::uint32_t timeouts = 0) {
  openintel::Aggregate agg;
  for (const double r : rtts) {
    openintel::Measurement m;
    m.status = dns::ResponseStatus::Ok;
    m.rtt_ms = r;
    agg.fold(m);
  }
  for (std::uint32_t i = 0; i < timeouts; ++i) {
    openintel::Measurement m;
    m.status = dns::ResponseStatus::Timeout;
    agg.fold(m);
  }
  return agg;
}

TEST(Impact, EquationOne) {
  // Impact_on_RTT = avgRTT(5min) / avgRTT(day before).
  const auto agg = agg_with_rtts({200.0, 220.0, 180.0});
  EXPECT_DOUBLE_EQ(impact_on_rtt(agg, 20.0), 10.0);
}

TEST(Impact, ZeroBaselineIsNoSignal) {
  const auto agg = agg_with_rtts({200.0});
  EXPECT_DOUBLE_EQ(impact_on_rtt(agg, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(impact_on_rtt(agg, -5.0), 0.0);
}

TEST(Impact, NoAnsweredQueriesIsNoSignal) {
  const auto agg = agg_with_rtts({}, 10);
  EXPECT_DOUBLE_EQ(impact_on_rtt(agg, 20.0), 0.0);
}

TEST(Impact, TimeoutsDoNotDiluteRtt) {
  // The RTT average covers answered queries; timeouts appear in the
  // failure rate instead.
  const auto agg = agg_with_rtts({100.0}, 9);
  EXPECT_DOUBLE_EQ(impact_on_rtt(agg, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(agg.failure_rate(), 0.9);
}

TEST(Impact, Thresholds) {
  EXPECT_DOUBLE_EQ(kImpairedThreshold, 10.0);
  EXPECT_DOUBLE_EQ(kSevereThreshold, 100.0);
}

TEST(Impact, UnityWhenUnchanged) {
  const auto agg = agg_with_rtts({20.0, 20.0});
  EXPECT_DOUBLE_EQ(impact_on_rtt(agg, 20.0), 1.0);
}

}  // namespace
}  // namespace ddos::core
