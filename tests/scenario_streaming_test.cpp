// The run executor's acceptance test: both whole-run configurations —
// run_longitudinal (retain every folded day) and
// run_longitudinal_streaming (retire at the join watermark) — must be
// bit-identical to reference_run, the plain composition of the public
// stages: joined events, join statistics, swept-measurement count,
// analysis summaries, and the DRS store file. ctest variants re-run this
// binary under DDOSREPRO_THREADS=2/8 to cover the multi-threaded sweep.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/analysis.h"
#include "core/columnar.h"
#include "reference_run.h"
#include "scenario/driver.h"
#include "store/format.h"

namespace ddos::scenario {
namespace {

// Each discovered test case runs as its own process, concurrently with
// the whole-binary DDOSREPRO_THREADS=2/8 ctest variants — TempDir()
// names must be per-process or parallel ctest workers race on the same
// store file.
std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

LongitudinalConfig test_config() {
  LongitudinalConfig cfg = small_longitudinal_config(21);
  cfg.world.provider_count = 80;
  cfg.world.domain_count = 4000;
  cfg.workload.scale = 200.0;
  return cfg;
}

void expect_equivalent(const LongitudinalResult& streamed,
                       const LongitudinalResult& reference,
                       bool feed_retired = true) {
  EXPECT_EQ(streamed.feed_records, reference.feed_records);
  // Streaming retires feed records shard by shard; only the count and the
  // stitched events survive (retain_feed keeps the vector for --feed-csv).
  if (feed_retired) {
    EXPECT_TRUE(streamed.feed.records().empty());
  } else {
    EXPECT_EQ(streamed.feed.records(), reference.feed.records());
  }
  ASSERT_EQ(streamed.events.size(), reference.events.size());
  for (std::size_t i = 0; i < streamed.events.size(); ++i) {
    EXPECT_EQ(streamed.events[i], reference.events[i]) << "event " << i;
  }
  EXPECT_EQ(streamed.swept_measurements, reference.swept_measurements);
  EXPECT_EQ(streamed.join_stats, reference.join_stats);
  ASSERT_EQ(streamed.joined.size(), reference.joined.size());
  for (std::size_t i = 0; i < streamed.joined.size(); ++i) {
    EXPECT_EQ(streamed.joined[i], reference.joined[i]) << "event " << i;
  }

  // Downstream analyses see identical inputs, so their summaries agree.
  const auto ms = core::monthly_summary(streamed.events,
                                        streamed.world->registry);
  const auto mm = core::monthly_summary(reference.events,
                                        reference.world->registry);
  ASSERT_EQ(ms.size(), mm.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(ms[i].year, mm[i].year);
    EXPECT_EQ(ms[i].month, mm[i].month);
    EXPECT_EQ(ms[i].dns_attacks, mm[i].dns_attacks);
    EXPECT_EQ(ms[i].other_attacks, mm[i].other_attacks);
    EXPECT_EQ(ms[i].dns_ips, mm[i].dns_ips);
    EXPECT_EQ(ms[i].other_ips, mm[i].other_ips);
  }
  const core::OwnedEventFrame streamed_joined(streamed.joined);
  const core::OwnedEventFrame reference_joined(reference.joined);
  const auto fs = core::failure_attribution_columnar(streamed_joined.frame());
  const auto fm = core::failure_attribution_columnar(reference_joined.frame());
  EXPECT_EQ(fs.complete_failures, fm.complete_failures);
  EXPECT_EQ(fs.single_asn, fm.single_asn);
  EXPECT_EQ(fs.single_prefix, fm.single_prefix);
  EXPECT_EQ(fs.unicast, fm.unicast);
  const auto is = core::intensity_impact_series_columnar(
      streamed_joined.frame(), streamed.darknet);
  const auto im = core::intensity_impact_series_columnar(
      reference_joined.frame(), reference.darknet);
  EXPECT_EQ(is.n(), im.n());
  EXPECT_EQ(is.pearson, im.pearson);
}

class StreamingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new LongitudinalConfig(test_config());
    reference_ = new LongitudinalResult(reference_run(*config_));
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete config_;
    reference_ = nullptr;
    config_ = nullptr;
  }
  static LongitudinalConfig* config_;
  static LongitudinalResult* reference_;
};

LongitudinalConfig* StreamingTest::config_ = nullptr;
LongitudinalResult* StreamingTest::reference_ = nullptr;

// run_longitudinal_streaming retires every day as soon as the join
// watermark passes it: the tightest retirement window the executor has.
TEST_F(StreamingTest, MatchesMaterializedAtMinimumWindow) {
  const auto streamed = run_longitudinal_streaming(*config_, {});
  expect_equivalent(streamed, *reference_);
}

// run_longitudinal never retires (the widest window): slack only delays
// retirement, never output. It keeps the whole store and record vector,
// so save_run over it writes the reference run's bytes.
TEST_F(StreamingTest, MatchesMaterializedAtWiderWindow) {
  const auto retained = run_longitudinal(*config_);
  expect_equivalent(retained, *reference_, /*feed_retired=*/false);

  const std::string ref_path = temp_path("retained_ref.drs");
  const std::string run_path = temp_path("retained_run.drs");
  const std::uint64_t ref_bytes =
      save_run(ref_path, *config_, /*threads=*/2, *reference_);
  EXPECT_EQ(save_run(run_path, *config_, /*threads=*/2, retained), ref_bytes);
  EXPECT_TRUE(read_file(run_path) == read_file(ref_path))
      << "save_run(run_longitudinal) differs from the reference run's store";
  std::filesystem::remove(ref_path);
  std::filesystem::remove(run_path);
}

TEST_F(StreamingTest, StreamedStoreFileIsByteIdenticalToSaveRun) {
  const std::string mat_path = temp_path("streaming_mat.drs");
  const std::uint64_t mat_bytes =
      save_run(mat_path, *config_, /*threads=*/2, *reference_);

  StreamingOptions opts;
  opts.store_path = temp_path("streaming_str.drs");
  opts.threads = 2;  // provenance meta must match save_run's
  const auto streamed = run_longitudinal_streaming(*config_, opts);
  EXPECT_EQ(streamed.store_bytes, mat_bytes);

  const std::string mat = read_file(mat_path);
  const std::string str = read_file(opts.store_path);
  ASSERT_EQ(str.size(), mat.size());
  EXPECT_TRUE(str == mat) << "streamed DRS store differs from save_run's";

  // And the streamed file is a valid store that loads back to the run.
  const StoredRun loaded = load_run(opts.store_path);
  EXPECT_EQ(loaded.joined, reference_->joined);
  EXPECT_EQ(loaded.join_stats, reference_->join_stats);
  std::filesystem::remove(mat_path);
  std::filesystem::remove(opts.store_path);
}

TEST_F(StreamingTest, RetainFeedKeepsRecordVector) {
  StreamingOptions opts;
  opts.retain_feed = true;  // --feed-csv path: the CSV needs the vector
  const auto streamed = run_longitudinal_streaming(*config_, opts);
  expect_equivalent(streamed, *reference_, /*feed_retired=*/false);
}

// A store that cannot be written fails the run loudly instead of
// reporting success: the streaming run opens its store before any work.
TEST_F(StreamingTest, UnwritableStorePathThrows) {
  const std::string bad = temp_path("missing-dir") + "/x.drs";
  EXPECT_THROW(save_run(bad, *config_, 1, *reference_), store::StoreError);
  StreamingOptions opts;
  opts.store_path = bad;
  EXPECT_THROW(run_longitudinal_streaming(*config_, opts), store::StoreError);
}

}  // namespace
}  // namespace ddos::scenario
