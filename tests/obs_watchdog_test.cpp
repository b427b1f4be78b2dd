// StallWatchdog: stall detection semantics on synthetic progress sources,
// and the end-to-end case the watchdog exists for — a two-stage streaming
// pipeline whose consumer wedges, where the diagnostic must name the stuck
// stage.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "exec/channel.h"
#include "exec/stage.h"
#include "obs/obs.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"

namespace ddos::obs {
namespace {

using namespace std::chrono_literals;

TEST(Watchdog, NoStallWhileAnySourceAdvances) {
  Observer observer;
  std::atomic<std::uint64_t> moving{0};
  std::atomic<std::uint64_t> frozen{0};
  const ScopedProgressSource a(&observer.progress_sources(), "src.moving",
                               [&] { return moving.load(); });
  const ScopedProgressSource b(&observer.progress_sources(), "src.frozen",
                               [&] { return frozen.load(); });

  WatchdogOptions options;
  options.timeout_s = 0.05;
  StallWatchdog watchdog(observer, options);

  EXPECT_EQ(watchdog.check_now(), "");  // baseline observation
  // One advancing source keeps the whole pipeline "fresh": a stall means
  // NOTHING moved, not that something is slow.
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(30ms);
    moving.fetch_add(1);
    EXPECT_EQ(watchdog.check_now(), "");
  }
  EXPECT_FALSE(watchdog.fired());
}

TEST(Watchdog, CheckNowNamesMostIdleSource) {
  Observer observer;
  std::atomic<std::uint64_t> late{0};
  std::atomic<std::uint64_t> early{0};
  const ScopedProgressSource a(&observer.progress_sources(), "src.late",
                               [&] { return late.load(); });
  const ScopedProgressSource b(&observer.progress_sources(), "src.early",
                               [&] { return early.load(); });

  WatchdogOptions options;
  options.timeout_s = 0.08;
  StallWatchdog watchdog(observer, options);

  EXPECT_EQ(watchdog.check_now(), "");
  // src.late advances once more, then both freeze: src.early has been
  // idle longest and must be named the suspect.
  std::this_thread::sleep_for(50ms);
  late.fetch_add(1);
  EXPECT_EQ(watchdog.check_now(), "");

  std::string report;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (report.empty() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
    report = watchdog.check_now();
  }
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("STALL"), std::string::npos);
  EXPECT_NE(report.find("suspected stall: src.early"), std::string::npos);
  EXPECT_NE(report.find("src.late"), std::string::npos);
  // check_now diagnoses without firing the handler.
  EXPECT_FALSE(watchdog.fired());
}

TEST(Watchdog, DiagnosticReportIncludesSamplerTails) {
  Observer observer;
  SamplerOptions sampler_options;
  sampler_options.sample_process = false;
  TelemetrySampler sampler(observer, sampler_options);
  observer.pipeline.sweep_measurements.inc(2);
  sampler.sample_now();

  WatchdogOptions options;
  options.sampler = &sampler;
  StallWatchdog watchdog(observer, options);
  const std::string report = watchdog.diagnostic_report();
  EXPECT_EQ(report.find("STALL:"), std::string::npos);
  EXPECT_NE(report.find("metrics snapshot:"), std::string::npos);
  EXPECT_NE(report.find("telemetry tails"), std::string::npos);
  EXPECT_NE(report.find("sweep.measurements"), std::string::npos);
}

// The scenario the watchdog exists for: producer -> channel -> consumer,
// consumer wedges after one item. The producer fills the channel and
// blocks in push(), so every source goes idle — and the consumer, idle
// longest, is the named suspect.
TEST(Watchdog, StalledTwoStagePipelineNamesStuckStage) {
  Observer observer;
  exec::Channel<int> channel(8);
  std::mutex wedge_mu;
  std::condition_variable wedge_cv;
  bool release = false;

  exec::Stage consumer("consume", [&](exec::StageContext& ctx) {
    if (channel.pop()) ctx.tick();  // one item, then wedge
    std::unique_lock<std::mutex> lock(wedge_mu);
    wedge_cv.wait(lock, [&] { return release; });
    while (channel.pop()) ctx.tick();  // drain after release
  });
  // The producer paces itself so it is still visibly advancing while the
  // watchdog takes its first polls — it must accumulate strictly less
  // idle time than the consumer, which wedged right at the start.
  exec::Stage producer("produce", [&](exec::StageContext& ctx) {
    for (int i = 0; i < 64; ++i) {
      std::this_thread::sleep_for(5ms);
      if (!channel.push(i)) break;
      ctx.tick();
    }
    channel.close();
  });

  const ScopedProgressSource produce_source(
      &observer.progress_sources(), "stage.produce",
      [context = producer.context()] { return context->progress(); });
  const ScopedProgressSource consume_source(
      &observer.progress_sources(), "stage.consume",
      [context = consumer.context()] { return context->progress(); });
  const ScopedProgressSource channel_source(
      &observer.progress_sources(), "channel.tasks",
      [&] { return channel.progress(); },
      [&] {
        return "depth " + std::to_string(channel.depth()) + "/" +
               std::to_string(channel.capacity());
      });

  std::string captured;
  std::mutex captured_mu;
  WatchdogOptions options;
  options.timeout_s = 0.1;
  options.poll_ms = 20;
  options.on_stall = [&](const std::string& report) {
    const std::lock_guard<std::mutex> lock(captured_mu);
    captured = report;
  };
  StallWatchdog watchdog(observer, options);
  watchdog.start();

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!watchdog.fired() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(watchdog.fired());
  watchdog.stop();

  std::string report;
  {
    const std::lock_guard<std::mutex> lock(captured_mu);
    report = captured;
  }
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("STALL"), std::string::npos);
  // The consumer wedged first (after one item); the producer kept pushing
  // until the channel filled, so the consumer is strictly the most idle.
  EXPECT_NE(report.find("suspected stall: stage.consume"),
            std::string::npos);
  // The channel's detail line shows the full queue behind the wedge.
  EXPECT_NE(report.find("depth 8/8"), std::string::npos);

  // Unwedge and shut down cleanly.
  {
    const std::lock_guard<std::mutex> lock(wedge_mu);
    release = true;
  }
  wedge_cv.notify_all();
  producer.join();
  consumer.join();
  EXPECT_EQ(producer.progress(), 64u);
  EXPECT_GE(consumer.progress(), 1u);
}

TEST(Watchdog, OnStallFiresAtMostOnce) {
  Observer observer;
  std::atomic<std::uint64_t> frozen{0};
  const ScopedProgressSource source(&observer.progress_sources(),
                                    "src.frozen",
                                    [&] { return frozen.load(); });
  std::atomic<int> fires{0};
  WatchdogOptions options;
  options.timeout_s = 0.03;
  options.poll_ms = 10;
  options.on_stall = [&](const std::string&) { fires.fetch_add(1); };
  StallWatchdog watchdog(observer, options);
  watchdog.start();

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!watchdog.fired() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(watchdog.fired());
  // Give the poll loop time to (incorrectly) fire again before stopping.
  std::this_thread::sleep_for(60ms);
  watchdog.stop();
  EXPECT_EQ(fires.load(), 1);
}

TEST(Watchdog, NoSourcesMeansNoStall) {
  Observer observer;
  WatchdogOptions options;
  options.timeout_s = 0.01;
  StallWatchdog watchdog(observer, options);
  EXPECT_EQ(watchdog.check_now(), "");
  std::this_thread::sleep_for(30ms);
  // An empty registry can never stall: there is nothing to be stuck.
  EXPECT_EQ(watchdog.check_now(), "");
}

}  // namespace
}  // namespace ddos::obs
