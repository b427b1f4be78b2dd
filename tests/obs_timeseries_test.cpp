// Ring-buffer time series + telemetry sampler: wraparound semantics,
// counter-rate correctness against hand-computed deltas, JSONL stream
// shape, and sample-while-mutate safety (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/sampler.h"
#include "obs/timeseries.h"

namespace ddos::obs {
namespace {

TEST(TimeSeries, RingWraparoundKeepsNewestCapacityPoints) {
  TimeSeries series(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    series.push(i * 100, static_cast<double>(i));
  }
  EXPECT_EQ(series.capacity(), 4u);
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.total_pushed(), 10u);
  // Pushes 0..9 into 4 slots retain 6,7,8,9 oldest-first.
  const auto points = series.tail(series.size());
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].value, static_cast<double>(6 + i));
    EXPECT_EQ(points[i].t_ns, (6 + i) * 100);
  }
  EXPECT_EQ(series.at(0).value, 6.0);
  EXPECT_EQ(series.back().value, 9.0);

  const auto tail2 = series.tail(2);
  ASSERT_EQ(tail2.size(), 2u);
  EXPECT_EQ(tail2[0].value, 8.0);
  EXPECT_EQ(tail2[1].value, 9.0);
  EXPECT_EQ(series.tail(100).size(), 4u);
}

TEST(TimeSeries, BeforeWrapBehavesLikeVector) {
  TimeSeries series(8, SeriesKind::Rate);
  EXPECT_EQ(series.kind(), SeriesKind::Rate);
  series.push(1, 5.0);
  series.push(2, -3.0);
  EXPECT_EQ(series.size(), 2u);
  EXPECT_EQ(series.total_pushed(), 2u);
  EXPECT_EQ(series.at(0).value, 5.0);
  EXPECT_EQ(series.back().value, -3.0);
}

TEST(TimeSeriesSet, CreatesSeriesOnFirstTouchWithMemoryBound) {
  TimeSeriesSet set(8);
  set.push("b.level", SeriesKind::Level, 1, 1.0);
  set.push("a.rate", SeriesKind::Rate, 1, 2.0);
  set.push("c.level", SeriesKind::Level, 1, 3.0);
  set.push("b.level", SeriesKind::Level, 2, 4.0);
  EXPECT_EQ(set.series_count(), 3u);
  EXPECT_EQ(set.capacity_per_series(), 8u);
  // The documented bound: series x capacity x 16 bytes per point.
  EXPECT_EQ(set.memory_bound_bytes(), 3u * 8u * 16u);

  const auto snapshot = set.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "a.rate");
  EXPECT_EQ(snapshot[0].kind, SeriesKind::Rate);
  EXPECT_EQ(snapshot[1].name, "b.level");
  ASSERT_EQ(snapshot[1].points.size(), 2u);
  EXPECT_EQ(snapshot[1].points[1].value, 4.0);
  EXPECT_EQ(snapshot[2].name, "c.level");

  const auto tails = set.snapshot_tails(1);
  ASSERT_EQ(tails.size(), 3u);
  ASSERT_EQ(tails[1].points.size(), 1u);
  EXPECT_EQ(tails[1].points[0].value, 4.0);
}

TEST(Sampler, CounterRateMatchesHandComputedDeltas) {
  Observer observer;
  SamplerOptions options;
  options.sample_process = false;
  TelemetrySampler sampler(observer, options);

  observer.pipeline.resolver_queries.inc(5);
  sampler.sample_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  observer.pipeline.resolver_queries.inc(10);
  sampler.sample_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  observer.pipeline.resolver_queries.inc(2);
  sampler.sample_now();
  EXPECT_EQ(sampler.samples_taken(), 3u);

  const auto snapshot = sampler.series().snapshot();
  const TimeSeriesSet::NamedSeries* level = nullptr;
  const TimeSeriesSet::NamedSeries* rate = nullptr;
  for (const auto& s : snapshot) {
    if (s.name == "resolver.queries") level = &s;
    if (s.name == "resolver.queries.rate") rate = &s;
  }
  ASSERT_NE(level, nullptr);
  ASSERT_NE(rate, nullptr);
  ASSERT_EQ(level->points.size(), 3u);
  EXPECT_EQ(level->points[0].value, 5.0);
  EXPECT_EQ(level->points[1].value, 15.0);
  EXPECT_EQ(level->points[2].value, 17.0);

  // Rate point i is derived from level points i and i+1: the value delta
  // over the elapsed seconds between those samples. Recompute from the
  // level series' own timestamps and demand a match.
  ASSERT_EQ(rate->points.size(), 2u);
  for (std::size_t i = 0; i < rate->points.size(); ++i) {
    const auto& prev = level->points[i];
    const auto& next = level->points[i + 1];
    ASSERT_GT(next.t_ns, prev.t_ns);
    const double dt_s = static_cast<double>(next.t_ns - prev.t_ns) / 1e9;
    EXPECT_DOUBLE_EQ(rate->points[i].value,
                     (next.value - prev.value) / dt_s);
    EXPECT_EQ(rate->points[i].t_ns, next.t_ns);
  }
}

TEST(Sampler, ProgressSourcesBecomeSeries) {
  Observer observer;
  SamplerOptions options;
  options.sample_process = false;
  TelemetrySampler sampler(observer, options);

  std::atomic<std::uint64_t> items{7};
  const ScopedProgressSource source(
      &observer.progress_sources(), "test.items",
      [&] { return items.load(std::memory_order_relaxed); });
  sampler.sample_now();
  items.store(11);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  sampler.sample_now();

  bool level_seen = false;
  bool rate_seen = false;
  for (const auto& s : sampler.series().snapshot()) {
    if (s.name == "progress.test.items") {
      level_seen = true;
      ASSERT_EQ(s.points.size(), 2u);
      EXPECT_EQ(s.points[0].value, 7.0);
      EXPECT_EQ(s.points[1].value, 11.0);
    }
    if (s.name == "progress.test.items.rate") rate_seen = true;
  }
  EXPECT_TRUE(level_seen);
  EXPECT_TRUE(rate_seen);
}

TEST(Sampler, JsonlStreamOneObjectPerSample) {
  const std::string path = ::testing::TempDir() + "sampler_test.jsonl";
  Observer observer;
  SamplerOptions options;
  options.sample_process = false;
  {
    std::ofstream jsonl(path, std::ios::trunc);
    options.jsonl = &jsonl;
    TelemetrySampler sampler(observer, options);
    observer.pipeline.sweep_measurements.inc(3);
    sampler.sample_now();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    observer.pipeline.sweep_measurements.inc(4);
    sampler.stop();  // takes the final sample and flushes
    EXPECT_EQ(sampler.samples_taken(), 2u);
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  double prev_t = -1.0;
  for (const auto& l : lines) {
    ASSERT_EQ(l.rfind("{\"t_ms\":", 0), 0u) << l;
    EXPECT_NE(l.find("\"values\":{"), std::string::npos);
    EXPECT_NE(l.find("\"sweep.measurements\":"), std::string::npos);
    EXPECT_EQ(l.back(), '}');
    const double t = std::stod(l.substr(8));
    EXPECT_GT(t, prev_t);
    prev_t = t;
  }
  EXPECT_NE(lines[1].find("\"sweep.measurements\":7"), std::string::npos);
  std::remove(path.c_str());
}

// TSan target: the sampler thread snapshots while pipeline counters,
// gauges, and a progress source mutate from another thread.
TEST(Sampler, ConcurrentSampleWhileMutate) {
  Observer observer;
  SamplerOptions options;
  options.interval_ms = 1;
  options.sample_process = false;
  TelemetrySampler sampler(observer, options);

  std::atomic<std::uint64_t> items{0};
  const ScopedProgressSource source(
      &observer.progress_sources(), "mutate.items",
      [&] { return items.load(std::memory_order_relaxed); });

  sampler.start();
  std::thread mutator([&] {
    for (int i = 0; i < 20000; ++i) {
      observer.pipeline.server_queries.inc();
      observer.pipeline.stream_watermark_day.set(i);
      observer.pipeline.sweep_rtt_ms.observe(static_cast<double>(i % 100));
      items.fetch_add(1, std::memory_order_relaxed);
      if (i % 4096 == 0) std::this_thread::sleep_for(
          std::chrono::milliseconds(1));
    }
  });
  mutator.join();
  sampler.stop();

  ASSERT_GE(sampler.samples_taken(), 2u);
  // Counter levels must be non-decreasing in sample order even though the
  // samples raced the increments.
  for (const auto& s : sampler.series().snapshot()) {
    if (s.name != "server.queries" && s.name != "progress.mutate.items") {
      continue;
    }
    double prev = -1.0;
    for (const auto& p : s.points) {
      EXPECT_GE(p.value, prev) << s.name;
      prev = p.value;
    }
    EXPECT_EQ(s.points.back().value, 20000.0) << s.name;
  }
}

}  // namespace
}  // namespace ddos::obs
