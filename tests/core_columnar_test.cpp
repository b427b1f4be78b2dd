// Columnar kernel parity: every core/columnar.h kernel must be
// bit-identical to its row fold from core/analysis.h when run over the
// column spans of a saved run — at any thread count (the threads2/8
// ctest variants re-run this binary under DDOSREPRO_THREADS). Also pins
// frame_equals_events (the columnar --rejoin assertion) positive and
// negative, and the monthly rollup against its row reference.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/columnar.h"
#include "scenario/driver.h"
#include "store/reader.h"
#include "store/scan.h"

namespace ddos::core {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

// One saved small run shared by every case in this process.
class ColumnarParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(temp_path("columnar_parity.drs"));
    config_ = new scenario::LongitudinalConfig(
        scenario::small_longitudinal_config(33));
    result_ = new scenario::LongitudinalResult(
        scenario::run_longitudinal(*config_));
    scenario::save_run(*path_, *config_, 1, *result_);
    reader_ = new store::Reader(*path_, store::ReadMode::Mapped);
    arena_ = new store::ColumnArena;
    frame_ = new EventFrame(store::read_event_frame(*reader_, *arena_));
  }
  static void TearDownTestSuite() {
    delete frame_;
    delete arena_;
    delete reader_;
    std::filesystem::remove(*path_);
    delete result_;
    delete config_;
    delete path_;
  }

  static std::string* path_;
  static scenario::LongitudinalConfig* config_;
  static scenario::LongitudinalResult* result_;
  static store::Reader* reader_;
  static store::ColumnArena* arena_;
  static EventFrame* frame_;
};

std::string* ColumnarParity::path_ = nullptr;
scenario::LongitudinalConfig* ColumnarParity::config_ = nullptr;
scenario::LongitudinalResult* ColumnarParity::result_ = nullptr;
store::Reader* ColumnarParity::reader_ = nullptr;
store::ColumnArena* ColumnarParity::arena_ = nullptr;
EventFrame* ColumnarParity::frame_ = nullptr;

TEST_F(ColumnarParity, FrameMatchesRows) {
  ASSERT_GT(frame_->rows, 0u) << "small run produced no joined events";
  EXPECT_EQ(frame_->rows, result_->joined.size());
  EXPECT_TRUE(frame_equals_events(*frame_, result_->joined));
}

// An in-memory run's frame, laid out from its rows, equals the stored
// frame column for column — string column included.
TEST_F(ColumnarParity, OwnedFrameOfRowsMatchesRows) {
  const OwnedEventFrame owned(result_->joined);
  const EventFrame& f = owned.frame();
  EXPECT_EQ(f.rows, frame_->rows);
  EXPECT_TRUE(frame_equals_events(f, result_->joined));
  for (std::size_t i = 0; i < f.rows; ++i) {
    EXPECT_EQ(f.org[i], (*frame_).org[i]) << "row " << i;
  }
  const OwnedEventFrame empty({});
  EXPECT_EQ(empty.frame().rows, 0u);
  EXPECT_TRUE(frame_equals_events(empty.frame(), {}));
}

TEST_F(ColumnarParity, FrameEqualityIsFieldExact) {
  // A single mutated field in a single row must be caught.
  auto mutated = result_->joined;
  ASSERT_FALSE(mutated.empty());
  mutated.back().timeouts += 1;
  EXPECT_FALSE(frame_equals_events(*frame_, mutated));
  // So must a length mismatch.
  mutated = result_->joined;
  mutated.pop_back();
  EXPECT_FALSE(frame_equals_events(*frame_, mutated));
}

TEST_F(ColumnarParity, ImpactSummaryBitIdentical) {
  const ImpactSummary row = impact_summary(result_->joined);
  const ImpactSummary col = impact_summary_columnar(*frame_);
  EXPECT_EQ(col.events, row.events);
  EXPECT_EQ(col.impaired_10x, row.impaired_10x);
  EXPECT_EQ(col.severe_100x, row.severe_100x);
}

TEST_F(ColumnarParity, FailureSummaryBitIdentical) {
  const FailureSummary row = failure_summary(result_->joined);
  const FailureSummary col = failure_summary_columnar(*frame_);
  EXPECT_EQ(col.events, row.events);
  EXPECT_EQ(col.events_with_failures, row.events_with_failures);
  EXPECT_EQ(col.timeouts, row.timeouts);
  EXPECT_EQ(col.servfails, row.servfails);
  EXPECT_EQ(col.failed_event_ports.total(), row.failed_event_ports.total());
  for (const char* bucket : {"80", "53", "443", "other"}) {
    EXPECT_EQ(col.failed_event_ports.count(bucket),
              row.failed_event_ports.count(bucket))
        << bucket;
  }
}

TEST_F(ColumnarParity, DurationSeriesBitIdentical) {
  const CorrelationSeries row = duration_impact_series(result_->joined);
  const CorrelationSeries col = duration_impact_series_columnar(*frame_);
  // Element order matters (ordered reduction): compare the raw vectors
  // with exact double equality, then the derived statistics.
  ASSERT_EQ(col.x.size(), row.x.size());
  for (std::size_t i = 0; i < row.x.size(); ++i) {
    EXPECT_EQ(col.x[i], row.x[i]) << i;
    EXPECT_EQ(col.y[i], row.y[i]) << i;
  }
  EXPECT_EQ(col.pearson, row.pearson);
  EXPECT_EQ(col.spearman, row.spearman);
}

TEST_F(ColumnarParity, AnycastGroupsBitIdentical) {
  const auto row = impact_by_anycast(result_->joined);
  const auto col = impact_by_anycast_columnar(*frame_);
  ASSERT_EQ(col.size(), row.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(col[i].group, row[i].group);
    EXPECT_EQ(col[i].events, row[i].events);
    EXPECT_EQ(col[i].median_impact, row[i].median_impact);
    EXPECT_EQ(col[i].p90_impact, row[i].p90_impact);
    EXPECT_EQ(col[i].max_impact, row[i].max_impact);
    EXPECT_EQ(col[i].impaired_10x, row[i].impaired_10x);
    EXPECT_EQ(col[i].severe_100x, row[i].severe_100x);
    EXPECT_EQ(col[i].events_with_failures, row[i].events_with_failures);
    EXPECT_EQ(col[i].complete_failures, row[i].complete_failures);
  }
}

TEST_F(ColumnarParity, MonthlyRollupMatchesRowReference) {
  const auto row = monthly_joined_summary(result_->joined);
  const auto col = monthly_joined_summary_columnar(*frame_);
  ASSERT_EQ(col.size(), row.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(col[i].year, row[i].year);
    EXPECT_EQ(col[i].month, row[i].month);
    EXPECT_EQ(col[i].events, row[i].events);
    EXPECT_EQ(col[i].impaired_10x, row[i].impaired_10x);
    EXPECT_EQ(col[i].severe_100x, row[i].severe_100x);
    EXPECT_EQ(col[i].events_with_failures, row[i].events_with_failures);
    total += col[i].events;
  }
  EXPECT_EQ(total, frame_->rows);  // every event lands in exactly one month
}

TEST_F(ColumnarParity, AnalyzeStoreMatchesRowAnalyses) {
  const scenario::StoreAnalysis analysis = scenario::analyze_store(*path_);
  EXPECT_EQ(analysis.joined, result_->joined.size());
  const ImpactSummary impact = impact_summary(result_->joined);
  EXPECT_EQ(analysis.impact.events, impact.events);
  EXPECT_EQ(analysis.impact.impaired_10x, impact.impaired_10x);
  EXPECT_EQ(analysis.impact.severe_100x, impact.severe_100x);
  const FailureSummary failures = failure_summary(result_->joined);
  EXPECT_EQ(analysis.failures.events_with_failures,
            failures.events_with_failures);
  EXPECT_EQ(analysis.duration_series.pearson,
            duration_impact_series(result_->joined).pearson);
  EXPECT_EQ(analysis.by_anycast.size(),
            impact_by_anycast(result_->joined).size());
  EXPECT_TRUE(analysis.mapped);
}

}  // namespace
}  // namespace ddos::core
