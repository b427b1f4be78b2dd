// The generate/analyze acceptance test: run the pipeline once, persist it
// with scenario::save_run, load it back with scenario::load_run, and
// assert the store reproduces the generating run bit-for-bit — feed
// records, sweep aggregates, joined events, headline statistics, and a
// full re-join from the stored aggregates. Also exercises the loud-error
// path on a corrupted store file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/columnar.h"
#include "scenario/driver.h"
#include "store/format.h"

namespace ddos::scenario {
namespace {

// gtest_discover_tests runs every test case of this binary as its own
// ctest entry (its own process), and SetUpTestSuite re-runs in each of
// them — so TempDir() names must be per-process or concurrent ctest -j
// workers race on the same store file.
std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

void expect_stats_equal(const util::RunningStats& a,
                        const util::RunningStats& b) {
  const auto ra = a.raw();
  const auto rb = b.raw();
  EXPECT_EQ(ra.n, rb.n);
  EXPECT_EQ(ra.sum, rb.sum);
  EXPECT_EQ(ra.m, rb.m);
  EXPECT_EQ(ra.m2, rb.m2);
  EXPECT_EQ(ra.min, rb.min);
  EXPECT_EQ(ra.max, rb.max);
}

void expect_aggregates_equal(const openintel::MeasurementStore& a,
                             const openintel::MeasurementStore& b) {
  const auto check =
      [](const std::vector<std::pair<std::uint64_t, openintel::Aggregate>>& x,
         const std::vector<std::pair<std::uint64_t, openintel::Aggregate>>&
             y) {
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          EXPECT_EQ(x[i].first, y[i].first);
          EXPECT_EQ(x[i].second.measured, y[i].second.measured);
          EXPECT_EQ(x[i].second.ok, y[i].second.ok);
          EXPECT_EQ(x[i].second.timeout, y[i].second.timeout);
          EXPECT_EQ(x[i].second.servfail, y[i].second.servfail);
          expect_stats_equal(x[i].second.rtt, y[i].second.rtt);
        }
      };
  check(a.sorted_daily(), b.sorted_daily());
  check(a.sorted_window(), b.sorted_window());
  EXPECT_EQ(a.sorted_ns_seen(), b.sorted_ns_seen());
  EXPECT_EQ(a.total_measurements(), b.total_measurements());
}

class StorePipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new LongitudinalConfig(small_longitudinal_config(21));
    config_->world.provider_count = 80;
    config_->world.domain_count = 4000;
    config_->workload.scale = 200.0;
    result_ = new LongitudinalResult(run_longitudinal(*config_));
    path_ = new std::string(temp_path("pipeline.drs"));
    save_run(*path_, *config_, /*threads=*/2, *result_);
    loaded_ = new StoredRun(load_run(*path_));
  }
  static void TearDownTestSuite() {
    delete loaded_;
    delete result_;
    delete config_;
    delete path_;
    loaded_ = nullptr;
    result_ = nullptr;
    config_ = nullptr;
    path_ = nullptr;
  }
  static LongitudinalConfig* config_;
  static LongitudinalResult* result_;
  static StoredRun* loaded_;
  static std::string* path_;
};

LongitudinalConfig* StorePipelineTest::config_ = nullptr;
LongitudinalResult* StorePipelineTest::result_ = nullptr;
StoredRun* StorePipelineTest::loaded_ = nullptr;
std::string* StorePipelineTest::path_ = nullptr;

TEST_F(StorePipelineTest, ProvenanceRoundTrips) {
  const LongitudinalConfig& cfg = loaded_->config;
  EXPECT_EQ(cfg.world.seed, config_->world.seed);
  EXPECT_EQ(cfg.world.domain_count, config_->world.domain_count);
  EXPECT_EQ(cfg.world.provider_count, config_->world.provider_count);
  EXPECT_EQ(cfg.world.anycast_recall, config_->world.anycast_recall);
  EXPECT_EQ(cfg.workload.seed, config_->workload.seed);
  EXPECT_EQ(cfg.workload.scale, config_->workload.scale);
  EXPECT_EQ(cfg.sweep_seed, config_->sweep_seed);
  EXPECT_EQ(cfg.feed_seed, config_->feed_seed);
  EXPECT_EQ(loaded_->threads, 2u);
  EXPECT_EQ(loaded_->attacks, result_->workload.schedule.size());
  EXPECT_EQ(loaded_->swept_measurements, result_->swept_measurements);
  EXPECT_EQ(loaded_->join_stats, result_->join_stats);
}

TEST_F(StorePipelineTest, FeedRecordsRoundTripBitForBit) {
  ASSERT_FALSE(result_->feed.records().empty());
  EXPECT_EQ(loaded_->feed.records(), result_->feed.records());
}

TEST_F(StorePipelineTest, StitchedEventsMatchGeneratingRun) {
  ASSERT_FALSE(result_->events.empty());
  EXPECT_EQ(loaded_->events, result_->events);
}

TEST_F(StorePipelineTest, SweepAggregatesRoundTripBitForBit) {
  expect_aggregates_equal(loaded_->store, result_->store);
}

TEST_F(StorePipelineTest, JoinedEventsRoundTripBitForBit) {
  ASSERT_FALSE(result_->joined.empty());
  EXPECT_EQ(loaded_->joined, result_->joined);
}

TEST_F(StorePipelineTest, HeadlineStatisticsMatch) {
  const core::OwnedEventFrame run(result_->joined);
  const core::OwnedEventFrame loaded(loaded_->joined);
  const auto a = core::impact_summary_columnar(run.frame());
  const auto b = core::impact_summary_columnar(loaded.frame());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.impaired_share(), b.impaired_share());
  EXPECT_EQ(a.severe_share_of_impaired(), b.severe_share_of_impaired());
  const auto fa = core::failure_summary_columnar(run.frame());
  const auto fb = core::failure_summary_columnar(loaded.frame());
  EXPECT_EQ(fa.failing_event_share(), fb.failing_event_share());
  EXPECT_EQ(fa.timeout_share_of_failures(), fb.timeout_share_of_failures());
  EXPECT_EQ(core::duration_impact_series_columnar(run.frame()).pearson,
            core::duration_impact_series_columnar(loaded.frame()).pearson);
}

TEST_F(StorePipelineTest, RejoinReproducesStoredJoin) {
  const RejoinResult rejoin = rejoin_from_store(*loaded_);
  EXPECT_EQ(rejoin.joined, loaded_->joined);
  EXPECT_EQ(rejoin.stats, loaded_->join_stats);
}

TEST_F(StorePipelineTest, CorruptedStoreFailsLoudly) {
  const std::string copy = temp_path("pipeline-corrupt.drs");
  std::filesystem::copy_file(*path_, copy,
                             std::filesystem::copy_options::overwrite_existing);
  {
    // Flip a byte in the middle of the block region (between the header
    // and the footer) so a column checksum — not the footer CRC — trips.
    std::fstream f(copy, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f);
    const auto offset =
        static_cast<std::streamoff>(std::filesystem::file_size(copy) / 2);
    f.seekg(offset);
    char c = 0;
    f.get(c);
    f.seekp(offset);
    f.put(static_cast<char>(c ^ 0x55));
  }
  EXPECT_THROW(load_run(copy), store::StoreError);
}

}  // namespace
}  // namespace ddos::scenario
