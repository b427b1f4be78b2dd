// Serve/batch parity: every QueryEngine answer must equal a brute-force
// recomputation from the run artifacts — the exact statistics the batch
// `analyze --store` path prints. Also asserts the engine is insensitive
// to what it is built from: a live run, its save_run/load_run image and
// the store's columns (load_engine, the serving load path) answer every
// query identically.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/columnar.h"
#include "core/impact.h"
#include "openintel/storage.h"
#include "scenario/driver.h"
#include "serve/query_engine.h"

namespace ddos::serve {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

class ServeParityTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario::LongitudinalConfig cfg = scenario::small_longitudinal_config(21);
    result_ = new scenario::LongitudinalResult(
        scenario::run_longitudinal(cfg));
    config_ = new scenario::LongitudinalConfig(cfg);
    engine_ = new QueryEngine(*result_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    delete config_;
    config_ = nullptr;
    delete result_;
    result_ = nullptr;
  }

  static scenario::LongitudinalResult* result_;
  static scenario::LongitudinalConfig* config_;
  static QueryEngine* engine_;
};

scenario::LongitudinalResult* ServeParityTest::result_ = nullptr;
scenario::LongitudinalConfig* ServeParityTest::config_ = nullptr;
QueryEngine* ServeParityTest::engine_ = nullptr;

TEST_F(ServeParityTest, RunHasEnoughStateToBeWorthServing) {
  ASSERT_FALSE(result_->joined.empty());
  ASSERT_FALSE(result_->events.empty());
  ASSERT_GT(engine_->nsset_count(), 0u);
  ASSERT_GT(engine_->series_points(), 0u);
}

// WindowScan over the full indexed range must reproduce the batch
// headline statistics byte for byte.
TEST_F(ServeParityTest, FullRangeWindowScanMatchesBatchSummaries) {
  const core::OwnedEventFrame joined(result_->joined);
  const core::ImpactSummary impacts =
      core::impact_summary_columnar(joined.frame());
  const core::FailureSummary failures =
      core::failure_summary_columnar(joined.frame());

  const WindowScanResult scan =
      engine_->window_scan(engine_->day_min(), engine_->day_max());
  EXPECT_EQ(scan.events, impacts.events);
  EXPECT_EQ(scan.impaired_10x, impacts.impaired_10x);
  EXPECT_EQ(scan.severe_100x, impacts.severe_100x);
  EXPECT_EQ(scan.events, failures.events);
  EXPECT_EQ(scan.events_with_failures, failures.events_with_failures);
  EXPECT_EQ(scan.timeouts, failures.timeouts);
  EXPECT_EQ(scan.servfails, failures.servfails);
  EXPECT_DOUBLE_EQ(scan.failing_event_share(),
                   failures.failing_event_share());
}

// Splitting the range at every day must tile: the two halves sum to the
// whole (max_peak_impact folds with max).
TEST_F(ServeParityTest, WindowScansTile) {
  const WindowScanResult whole =
      engine_->window_scan(engine_->day_min(), engine_->day_max());
  for (netsim::DayIndex cut = engine_->day_min();
       cut < engine_->day_max(); cut += 7) {
    const WindowScanResult left = engine_->window_scan(engine_->day_min(), cut);
    const WindowScanResult right =
        engine_->window_scan(cut + 1, engine_->day_max());
    EXPECT_EQ(left.events + right.events, whole.events);
    EXPECT_EQ(left.timeouts + right.timeouts, whole.timeouts);
    EXPECT_EQ(left.servfails + right.servfails, whole.servfails);
    EXPECT_EQ(left.impaired_10x + right.impaired_10x, whole.impaired_10x);
    EXPECT_EQ(left.severe_100x + right.severe_100x, whole.severe_100x);
    EXPECT_DOUBLE_EQ(
        std::max(left.max_peak_impact, right.max_peak_impact),
        whole.max_peak_impact);
  }
}

// PointLookup vs a brute-force fold of the joined vector, for every NSSet
// that appears there.
TEST_F(ServeParityTest, PointLookupMatchesBruteForceEventFold) {
  std::map<dns::NssetId, std::vector<std::uint32_t>> expected_indices;
  for (std::uint32_t i = 0; i < result_->joined.size(); ++i) {
    expected_indices[result_->joined[i].nsset].push_back(i);
  }
  ASSERT_FALSE(expected_indices.empty());
  for (const auto& [nsset, indices] : expected_indices) {
    const PointResult r = engine_->point_lookup(nsset);
    ASSERT_TRUE(r.found) << "nsset " << nsset;
    EXPECT_EQ(r.summary.nsset, nsset);
    ASSERT_EQ(r.event_indices.size(), indices.size());
    std::uint32_t events = 0, ok = 0, timeouts = 0, servfails = 0;
    double peak = 0.0, fail_rate = 0.0;
    netsim::DayIndex first = 0, last = 0;
    for (std::size_t j = 0; j < indices.size(); ++j) {
      EXPECT_EQ(r.event_indices[j], indices[j]) << "canonical order";
      const core::NssetAttackEvent& ev = result_->joined[indices[j]];
      const netsim::DayIndex day = ev.rsdos.start_time().day();
      if (events == 0 || day < first) first = day;
      if (events == 0 || day > last) last = day;
      ++events;
      ok += ev.ok;
      timeouts += ev.timeouts;
      servfails += ev.servfails;
      peak = std::max(peak, ev.peak_impact);
      fail_rate = std::max(fail_rate, ev.failure_rate);
    }
    EXPECT_EQ(r.summary.events, events);
    EXPECT_EQ(r.summary.ok, ok);
    EXPECT_EQ(r.summary.timeouts, timeouts);
    EXPECT_EQ(r.summary.servfails, servfails);
    EXPECT_DOUBLE_EQ(r.summary.peak_impact, peak);
    EXPECT_DOUBLE_EQ(r.summary.max_failure_rate, fail_rate);
    EXPECT_EQ(r.summary.first_day, first);
    EXPECT_EQ(r.summary.last_day, last);
  }
}

// PointLookup series vs the store's daily aggregates, for every NSSet in
// the serving key universe (attacked or series-only).
TEST_F(ServeParityTest, PointLookupSeriesMatchesTheStore) {
  std::map<dns::NssetId, std::vector<DayPoint>> expected;
  for (const auto& [key, agg] : result_->store.sorted_daily()) {
    DayPoint p;
    p.day = openintel::MeasurementStore::day_key_day(key);
    p.measured = agg.measured;
    p.avg_rtt_ms = agg.avg_rtt();
    p.failure_rate = agg.failure_rate();
    expected[openintel::MeasurementStore::key_nsset(key)].push_back(p);
  }
  std::size_t total_points = 0;
  for (const dns::NssetId nsset : engine_->keys()) {
    const PointResult r = engine_->point_lookup(nsset);
    ASSERT_TRUE(r.found);
    const auto it = expected.find(nsset);
    const std::size_t want = it == expected.end() ? 0 : it->second.size();
    ASSERT_EQ(r.series.size(), want) << "nsset " << nsset;
    for (std::size_t j = 0; j < want; ++j) {
      EXPECT_EQ(r.series[j], it->second[j]) << "nsset " << nsset
                                            << " point " << j;
    }
    total_points += r.series.size();
  }
  EXPECT_EQ(total_points, engine_->series_points());
  EXPECT_EQ(total_points, result_->store.sorted_daily().size());
}

TEST_F(ServeParityTest, PointLookupMissesCleanly) {
  // The serving universe is dense NssetIds from the registry; an id far
  // past it must miss without touching per-key state.
  const PointResult r = engine_->point_lookup(0x7FFFFFFFu);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.event_indices.empty());
  EXPECT_TRUE(r.series.empty());
}

// TopK(Attacks) vs a brute-force per-victim count over the telescope
// events — the batch "top attacked targets" table.
TEST_F(ServeParityTest, TopKAttacksMatchesBruteForce) {
  std::map<std::uint64_t, std::uint64_t> per_victim;
  for (const auto& ev : result_->events) ++per_victim[ev.victim.value()];
  std::vector<TopEntry> expected;
  for (const auto& [ip, n] : per_victim) {
    expected.push_back({ip, static_cast<double>(n)});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const TopEntry& a, const TopEntry& b) {
                     return a.value > b.value;
                   });

  std::vector<TopEntry> got;
  const std::size_t n =
      engine_->top_k(TopKMetric::Attacks, expected.size() + 10, got);
  ASSERT_EQ(n, expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], expected[i]) << "row " << i;
  }

  // The k prefix is exactly the head of the full board.
  std::vector<TopEntry> head;
  engine_->top_k(TopKMetric::Attacks, 5, head);
  ASSERT_LE(head.size(), 5u);
  for (std::size_t i = 0; i < head.size(); ++i) {
    EXPECT_EQ(head[i], expected[i]);
  }
}

// TopK(PeakImpact)/TopK(FailureRate) vs brute-force per-NSSet maxima.
TEST_F(ServeParityTest, TopKNssetBoardsMatchBruteForce) {
  std::map<dns::NssetId, double> peak, fail;
  for (const auto& ev : result_->joined) {
    peak[ev.nsset] = std::max(peak[ev.nsset], ev.peak_impact);
    fail[ev.nsset] = std::max(fail[ev.nsset], ev.failure_rate);
  }
  const auto check = [&](TopKMetric metric,
                         const std::map<dns::NssetId, double>& by_key) {
    std::vector<TopEntry> expected;
    for (const auto& [nsset, value] : by_key) {
      expected.push_back({nsset, value});
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const TopEntry& a, const TopEntry& b) {
                       return a.value > b.value;
                     });
    std::vector<TopEntry> got;
    const std::size_t n = engine_->top_k(metric, by_key.size(), got);
    ASSERT_EQ(n, expected.size()) << "metric " << static_cast<int>(metric);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], expected[i])
          << "metric " << static_cast<int>(metric) << " row " << i;
    }
  };
  check(TopKMetric::PeakImpact, peak);
  check(TopKMetric::FailureRate, fail);
}

// Every answer of `got` equals `want`'s: each key's point lookup, every
// leaderboard in full, and every single-day and the full-range window
// scan.
void expect_same_answers(const QueryEngine& want, const QueryEngine& got) {
  ASSERT_EQ(got.nsset_count(), want.nsset_count());
  ASSERT_EQ(got.series_points(), want.series_points());
  ASSERT_EQ(got.leaderboard_entries(), want.leaderboard_entries());
  ASSERT_EQ(got.day_min(), want.day_min());
  ASSERT_EQ(got.day_max(), want.day_max());
  ASSERT_TRUE(std::equal(got.keys().begin(), got.keys().end(),
                         want.keys().begin(), want.keys().end()));

  for (const dns::NssetId nsset : want.keys()) {
    const PointResult a = want.point_lookup(nsset);
    const PointResult b = got.point_lookup(nsset);
    ASSERT_EQ(a.found, b.found);
    EXPECT_EQ(a.summary, b.summary) << "nsset " << nsset;
    EXPECT_TRUE(std::equal(a.event_indices.begin(), a.event_indices.end(),
                           b.event_indices.begin(), b.event_indices.end()))
        << "nsset " << nsset;
    EXPECT_TRUE(std::equal(a.series.begin(), a.series.end(),
                           b.series.begin(), b.series.end()))
        << "nsset " << nsset;
  }
  const std::size_t universe = want.leaderboard_entries();
  for (const TopKMetric metric :
       {TopKMetric::Attacks, TopKMetric::PeakImpact,
        TopKMetric::FailureRate}) {
    std::vector<TopEntry> a, b;
    want.top_k(metric, universe, a);
    got.top_k(metric, universe, b);
    EXPECT_FALSE(a.empty()) << "metric " << static_cast<int>(metric);
    EXPECT_EQ(a, b) << "metric " << static_cast<int>(metric);
  }
  for (netsim::DayIndex d = want.day_min(); d <= want.day_max(); ++d) {
    EXPECT_EQ(want.window_scan(d, d), got.window_scan(d, d)) << "day " << d;
  }
  EXPECT_EQ(want.window_scan(want.day_min(), want.day_max()),
            got.window_scan(got.day_min(), got.day_max()));
}

// A DRS round trip must not change a single answer: build a second engine
// from save_run/load_run and compare every query against the live one.
TEST_F(ServeParityTest, StoredRunEngineAnswersIdentically) {
  const std::string path = temp_path("serve-parity.drs");
  ASSERT_GT(scenario::save_run(path, *config_, 1, *result_), 0u);
  const scenario::StoredRun stored = scenario::load_run(path);
  const QueryEngine loaded(stored);
  expect_same_answers(*engine_, loaded);
  std::filesystem::remove(path);
}

// The serving load path reads only store columns — the joined frame, the
// daily aggregates and the feed's victim/window columns through the
// stitcher — and must answer exactly as the live run's engine does.
TEST_F(ServeParityTest, StoreColumnEngineAnswersIdentically) {
  const std::string path = temp_path("serve-parity-columns.drs");
  ASSERT_GT(scenario::save_run(path, *config_, 1, *result_), 0u);
  const std::unique_ptr<QueryEngine> loaded = load_engine(path);
  expect_same_answers(*engine_, *loaded);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ddos::serve
