#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/pool.h"
#include "openintel/storage.h"
#include "openintel/sweeper.h"

namespace ddos::openintel {
namespace {

using netsim::IPv4Addr;
using netsim::SimTime;

struct Fixture {
  dns::DnsRegistry registry;
  attack::AttackSchedule schedule;

  Fixture() {
    for (int i = 1; i <= 3; ++i) {
      dns::Nameserver ns(IPv4Addr(10, 0, 0, static_cast<std::uint8_t>(i)),
                         {dns::Site{"x", 50e3, 20.0, 1.0}});
      ns.set_legit_pps(1e3);
      registry.add_nameserver(std::move(ns));
    }
    for (int d = 0; d < 40; ++d) {
      registry.add_domain(
          dns::DomainName::must("d" + std::to_string(d) + ".com"),
          {IPv4Addr(10, 0, 0, 1), IPv4Addr(10, 0, 0, 2), IPv4Addr(10, 0, 0, 3)});
    }
  }

  Sweeper sweeper(std::uint64_t seed = 1) {
    SweeperParams params;
    params.seed = seed;
    return Sweeper(registry, schedule, params);
  }
};

TEST(Sweeper, MeasurementTimeStableAndSpread) {
  Fixture fx;
  const auto sweeper = fx.sweeper();
  const SimTime t1 = sweeper.measurement_time(0, 5);
  EXPECT_EQ(sweeper.measurement_time(0, 5), t1);  // stable
  EXPECT_EQ(t1.day(), 5);
  // Different domains land in different windows (overwhelmingly).
  int distinct = 0;
  netsim::WindowIndex prev = -1;
  for (dns::DomainId d = 0; d < 40; ++d) {
    const auto w = sweeper.measurement_time(d, 5).window();
    if (w != prev) ++distinct;
    prev = w;
  }
  EXPECT_GT(distinct, 30);
}

TEST(Sweeper, MeasureHealthyDomain) {
  Fixture fx;
  const auto sweeper = fx.sweeper();
  const Measurement m = sweeper.measure(0, SimTime(1000));
  EXPECT_EQ(m.status, dns::ResponseStatus::Ok);
  EXPECT_EQ(m.domain, 0u);
  EXPECT_EQ(m.nsset, fx.registry.nsset_of_domain(0));
  EXPECT_GT(m.rtt_ms, 5.0);
  EXPECT_LT(m.rtt_ms, 100.0);
  EXPECT_TRUE(m.answered());
}

TEST(Sweeper, DeterministicMeasurements) {
  Fixture fx;
  const auto s1 = fx.sweeper(42);
  const auto s2 = fx.sweeper(42);
  for (dns::DomainId d = 0; d < 10; ++d) {
    const auto a = s1.measure(d, SimTime(500));
    const auto b = s2.measure(d, SimTime(500));
    EXPECT_EQ(a.status, b.status);
    EXPECT_DOUBLE_EQ(a.rtt_ms, b.rtt_ms);
    EXPECT_EQ(a.chosen_ns, b.chosen_ns);
  }
}

TEST(Sweeper, SaltDecorrelates) {
  Fixture fx;
  const auto sweeper = fx.sweeper();
  const auto a = sweeper.measure_with_salt(0, SimTime(500), 1);
  const auto b = sweeper.measure_with_salt(0, SimTime(500), 2);
  // Same instant, different salts: independent draws (usually different).
  EXPECT_NE(a.rtt_ms, b.rtt_ms);
}

TEST(Sweeper, AttackElevatesRtt) {
  Fixture fx;
  attack::AttackSpec spec;
  spec.target = IPv4Addr(10, 0, 0, 1);
  spec.start = SimTime(0);
  spec.duration_s = 3600;
  spec.peak_pps = 48e3;  // rho ~0.98 on the 50K-capacity server
  spec.steady = true;
  fx.schedule.add(spec);
  const auto sweeper = fx.sweeper();

  double attacked_avg = 0.0, baseline_avg = 0.0;
  int attacked_n = 0, baseline_n = 0;
  for (int i = 0; i < 600; ++i) {
    const auto during = sweeper.measure_with_salt(i % 40, SimTime(600), i);
    if (during.status == dns::ResponseStatus::Ok) {
      attacked_avg += during.rtt_ms;
      ++attacked_n;
    }
    const auto after = sweeper.measure_with_salt(i % 40, SimTime(7200), i);
    if (after.status == dns::ResponseStatus::Ok) {
      baseline_avg += after.rtt_ms;
      ++baseline_n;
    }
  }
  attacked_avg /= attacked_n;
  baseline_avg /= baseline_n;
  // One of three servers near saturation: the mean rises well above base.
  EXPECT_GT(attacked_avg, baseline_avg * 2.0);
}

TEST(Sweeper, SweepDayVisitsEveryDomain) {
  Fixture fx;
  const auto sweeper = fx.sweeper();
  int count = 0;
  sweeper.sweep_day(3, [&](const Measurement& m) {
    EXPECT_EQ(m.time.day(), 3);
    ++count;
  });
  EXPECT_EQ(count, 40);
}

TEST(Sweeper, SweepDomainsSubsetMatchesFullSweep) {
  Fixture fx;
  const auto sweeper = fx.sweeper();
  std::vector<Measurement> full;
  sweeper.sweep_day(3, [&](const Measurement& m) { full.push_back(m); });
  const std::vector<dns::DomainId> subset = {5, 17};
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    exec::WorkerPool pool(threads);
    std::vector<Measurement> sparse;
    sweeper.sweep_domains_batched(
        3, subset, pool, [&](std::span<const Measurement> batch) {
          sparse.insert(sparse.end(), batch.begin(), batch.end());
        });
    ASSERT_EQ(sparse.size(), 2u);
    EXPECT_DOUBLE_EQ(sparse[0].rtt_ms, full[5].rtt_ms);
    EXPECT_DOUBLE_EQ(sparse[1].rtt_ms, full[17].rtt_ms);
    EXPECT_EQ(sparse[0].status, full[5].status);
  }
}

Measurement make_measurement(dns::NssetId nsset, std::int64_t t,
                             dns::ResponseStatus status, double rtt,
                             IPv4Addr ns = IPv4Addr(10, 0, 0, 1)) {
  Measurement m;
  m.time = SimTime(t);
  m.domain = 0;
  m.nsset = nsset;
  m.status = status;
  m.rtt_ms = rtt;
  m.chosen_ns = ns;
  return m;
}

TEST(Aggregate, FoldsStatuses) {
  Aggregate agg;
  agg.fold(make_measurement(0, 0, dns::ResponseStatus::Ok, 20.0));
  agg.fold(make_measurement(0, 0, dns::ResponseStatus::Ok, 40.0));
  agg.fold(make_measurement(0, 0, dns::ResponseStatus::Timeout, 4500.0));
  agg.fold(make_measurement(0, 0, dns::ResponseStatus::ServFail, 25.0));
  EXPECT_EQ(agg.measured, 4u);
  EXPECT_EQ(agg.ok, 2u);
  EXPECT_EQ(agg.timeout, 1u);
  EXPECT_EQ(agg.servfail, 1u);
  EXPECT_EQ(agg.errors(), 2u);
  EXPECT_DOUBLE_EQ(agg.failure_rate(), 0.5);
  // RTT aggregates over answered queries only (timeouts carry no RTT).
  EXPECT_NEAR(agg.avg_rtt(), (20.0 + 40.0 + 25.0) / 3.0, 1e-12);
}

TEST(MeasurementStore, DailyAndWindowAggregation) {
  MeasurementStore store;
  store.add(make_measurement(7, 100, dns::ResponseStatus::Ok, 20.0));
  store.add(make_measurement(7, 400, dns::ResponseStatus::Ok, 30.0));
  store.add(make_measurement(7, netsim::kSecondsPerDay + 50,
                             dns::ResponseStatus::Ok, 40.0));
  const auto* day0 = store.daily(7, 0);
  ASSERT_NE(day0, nullptr);
  EXPECT_EQ(day0->measured, 2u);
  EXPECT_DOUBLE_EQ(store.daily_avg_rtt(7, 0), 25.0);
  EXPECT_DOUBLE_EQ(store.daily_avg_rtt(7, 1), 40.0);
  EXPECT_DOUBLE_EQ(store.daily_avg_rtt(7, 5), 0.0);
  const auto* w0 = store.window(7, 0);
  ASSERT_NE(w0, nullptr);
  EXPECT_EQ(w0->measured, 1u);
  const auto* w1 = store.window(7, 1);
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w1->measured, 1u);
  EXPECT_EQ(store.window(7, 2), nullptr);
  EXPECT_EQ(store.total_measurements(), 3u);
}

TEST(MeasurementStore, NsSeenTracksAnsweredOnly) {
  MeasurementStore store;
  store.add(make_measurement(7, 100, dns::ResponseStatus::Ok, 20.0,
                             IPv4Addr(10, 0, 0, 1)));
  store.add(make_measurement(7, 200, dns::ResponseStatus::Timeout, 0.0,
                             IPv4Addr(10, 0, 0, 2)));
  EXPECT_TRUE(store.ns_seen_on(IPv4Addr(10, 0, 0, 1), 0));
  EXPECT_FALSE(store.ns_seen_on(IPv4Addr(10, 0, 0, 2), 0));
  EXPECT_FALSE(store.ns_seen_on(IPv4Addr(10, 0, 0, 1), 1));
  EXPECT_EQ(store.sorted_ns_seen().size(), 1u);
}

// A key-set retention policy in the shape of scenario::PlanRetention:
// add_batch is the only retention path, add() keeps everything.
struct KeySetKeep {
  std::set<dns::NssetId> daily_nssets;
  std::set<netsim::WindowIndex> windows;
  std::set<std::pair<std::uint32_t, netsim::DayIndex>> ns_days;

  bool daily(dns::NssetId nsset, netsim::DayIndex) const {
    return daily_nssets.contains(nsset);
  }
  bool window(dns::NssetId, netsim::WindowIndex w) const {
    return windows.contains(w);
  }
  bool ns_seen(IPv4Addr ns, netsim::DayIndex day) const {
    return ns_days.contains({ns.value(), day});
  }
};

TEST(MeasurementStore, RetentionPredicatesFilterOnIngest) {
  MeasurementStore store;
  KeySetKeep keep;
  keep.daily_nssets = {1};
  keep.windows = {0};
  const std::vector<Measurement> batch = {
      make_measurement(1, 100, dns::ResponseStatus::Ok, 20.0),
      make_measurement(2, 400, dns::ResponseStatus::Ok, 30.0)};
  store.add_batch(batch, keep);
  EXPECT_NE(store.daily(1, 0), nullptr);
  EXPECT_EQ(store.daily(2, 0), nullptr);
  EXPECT_NE(store.window(1, 0), nullptr);
  EXPECT_EQ(store.window(2, 1), nullptr);
  EXPECT_FALSE(store.ns_seen_on(IPv4Addr(10, 0, 0, 1), 0));
  EXPECT_EQ(store.total_measurements(), 2u);  // counting is unaffected
}

}  // namespace
}  // namespace ddos::openintel
