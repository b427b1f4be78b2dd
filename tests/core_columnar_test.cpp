// Parallel frame kernels against brute-force oracles: each parallel
// core/columnar.h kernel, run over the column spans of a saved run, must
// equal a serial loop over the run's joined rows written in this file —
// exactly, series element order and group medians/p90s included — at
// any thread count (the threads2/8 ctest variants re-run this binary
// under DDOSREPRO_THREADS). Also pins the two frame loaders against the
// one events column list, store::EventColumns: the rows read_dataset
// reads back are the rows write_dataset wrote, and an in-memory run's
// OwnedEventFrame equals its store's read_event_frame span for span.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/columnar.h"
#include "core/impact.h"
#include "netsim/simtime.h"
#include "scenario/driver.h"
#include "store/dataset.h"
#include "store/reader.h"
#include "store/scan.h"
#include "store/writer.h"
#include "util/stats.h"

namespace ddos::core {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

// ---- oracles: serial loops over joined rows, the reference the
// parallel kernels are compared against.

using Rows = std::vector<NssetAttackEvent>;

ImpactSummary impact_oracle(const Rows& rows) {
  ImpactSummary s;
  for (const auto& ev : rows) {
    ++s.events;
    if (ev.peak_impact >= kImpairedThreshold) ++s.impaired_10x;
    if (ev.peak_impact >= kSevereThreshold) ++s.severe_100x;
  }
  return s;
}

FailureSummary failure_oracle(const Rows& rows) {
  FailureSummary s;
  for (const auto& ev : rows) {
    ++s.events;
    s.timeouts += ev.timeouts;
    s.servfails += ev.servfails;
    if (ev.timeouts + ev.servfails > 0) {
      ++s.events_with_failures;
      s.failed_event_ports.add(port_bucket(ev.rsdos.first_port));
    }
  }
  return s;
}

template <typename XOf>
CorrelationSeries series_oracle(const Rows& rows, const XOf& x_of) {
  CorrelationSeries s;
  for (const auto& ev : rows) {
    if (ev.peak_impact <= 0.0) continue;
    s.x.push_back(x_of(ev));
    s.y.push_back(ev.peak_impact);
  }
  s.pearson = util::pearson(s.x, s.y);
  s.spearman = util::spearman(s.x, s.y);
  return s;
}

CorrelationSeries duration_oracle(const Rows& rows) {
  return series_oracle(rows, [](const NssetAttackEvent& ev) {
    return static_cast<double>(ev.rsdos.duration_s());
  });
}

// One pass over every row per group name; `group_of` names a row's
// group, and rows naming none of `names` are dropped.
template <typename GroupOf>
std::vector<GroupImpact> group_oracle(const Rows& rows,
                                      const std::vector<std::string>& names,
                                      const GroupOf& group_of) {
  std::vector<GroupImpact> out;
  for (const auto& name : names) {
    GroupImpact g;
    g.group = name;
    std::vector<double> impacts;
    for (const auto& ev : rows) {
      if (group_of(ev) != name) continue;
      ++g.events;
      impacts.push_back(ev.peak_impact);
      if (ev.peak_impact >= kImpairedThreshold) ++g.impaired_10x;
      if (ev.peak_impact >= kSevereThreshold) ++g.severe_100x;
      if (ev.timeouts + ev.servfails > 0) ++g.events_with_failures;
      if (ev.domains_measured > 0 && ev.ok == 0) ++g.complete_failures;
    }
    g.median_impact = util::median(impacts);
    g.p90_impact = util::percentile(impacts, 90.0);
    g.max_impact = util::max_of(impacts);
    out.push_back(g);
  }
  return out;
}

std::vector<GroupImpact> anycast_oracle(const Rows& rows) {
  return group_oracle(rows, {"unicast", "partial-anycast", "anycast"},
                      [](const NssetAttackEvent& ev) -> std::string {
                        return anycast::to_string(
                            ev.resilience.anycast_class);
                      });
}

void expect_series_equal(const CorrelationSeries& col,
                         const CorrelationSeries& row) {
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

void expect_groups_equal(const std::vector<GroupImpact>& col,
                         const std::vector<GroupImpact>& row) {
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

std::vector<MonthlyJoinedRow> monthly_oracle(const Rows& rows) {
  std::map<std::pair<int, int>, MonthlyJoinedRow> by_month;
  for (const auto& ev : rows) {
    int year = 0, month = 0, dom = 0;
    netsim::day_to_ymd(ev.rsdos.start_time().day(), year, month, dom);
    MonthlyJoinedRow& row = by_month[{year, month}];
    row.year = year;
    row.month = month;
    ++row.events;
    if (ev.peak_impact >= kImpairedThreshold) ++row.impaired_10x;
    if (ev.peak_impact >= kSevereThreshold) ++row.severe_100x;
    if (ev.timeouts + ev.servfails > 0) ++row.events_with_failures;
  }
  std::vector<MonthlyJoinedRow> out;
  for (const auto& [key, row] : by_month) out.push_back(row);
  return out;
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

// The rows of a store's events dataset, read through the column list.
std::vector<NssetAttackEvent> stored_rows(const store::Reader& reader) {
  std::vector<NssetAttackEvent> rows;
  store::ColumnArena arena;
  store::read_dataset<store::EventColumns>(
      reader, "events", arena,
      [&](NssetAttackEvent&& row) { rows.push_back(std::move(row)); });
  return rows;
}

// A value's bits, so that doubles compare exactly (-0.0 is not 0.0).
template <typename V>
auto bits(V value) {
  if constexpr (std::is_same_v<V, double>) {
    return std::bit_cast<std::uint64_t>(value);
  } else {
    return value;
  }
}

// `a` and `b` hold the same values in every EventColumns span.
void expect_same_frame(const EventFrame& a, const EventFrame& b) {
  ASSERT_EQ(a.rows, b.rows);
  store::EventColumns::for_each_column(
      [&](std::string_view column, store::Encoding, auto, auto span) {
        const auto& x = a.*span;
        const auto& y = b.*span;
        ASSERT_EQ(x.size(), a.rows) << column;
        ASSERT_EQ(y.size(), b.rows) << column;
        for (std::size_t i = 0; i < a.rows; ++i) {
          EXPECT_EQ(bits(x[i]), bits(y[i])) << column << " row " << i;
        }
      });
}

TEST_F(ColumnarParity, FrameMatchesRows) {
  ASSERT_GT(frame_->rows, 0u) << "small run produced no joined events";
  EXPECT_EQ(frame_->rows, result_->joined.size());
  EXPECT_EQ(stored_rows(*reader_), result_->joined);
}

// An in-memory run's frame, laid out from its rows, equals the stored
// frame column for column — string column included.
TEST_F(ColumnarParity, OwnedFrameOfRowsMatchesRows) {
  const store::OwnedEventFrame owned(result_->joined);
  expect_same_frame(owned.frame(), *frame_);
  const store::OwnedEventFrame empty({});
  expect_same_frame(empty.frame(), EventFrame{});
}

// Rows at the extremes of every field's type round-trip through a store
// written and read by the column list, and their owned frame equals the
// stored one: a negative start window, u64-max counts, u16-max ports and
// an org with an embedded NUL.
TEST_F(ColumnarParity, ExtremeRowsRoundTripThroughTheColumnList) {
  auto rows = result_->joined;
  ASSERT_FALSE(rows.empty());
  core::NssetAttackEvent& e = rows.back();
  e.rsdos.victim = netsim::IPv4Addr(0xFFFFFFFFu);
  e.rsdos.start_window = -3;
  e.rsdos.end_window = std::numeric_limits<netsim::WindowIndex>::max();
  e.rsdos.max_ppm = -0.0;
  e.rsdos.total_packets = std::numeric_limits<std::uint64_t>::max();
  e.rsdos.max_slash16 = std::numeric_limits<std::uint32_t>::max();
  e.rsdos.protocol = attack::Protocol::UDP;
  e.rsdos.first_port = 65535;
  e.rsdos.max_unique_ports = 65535;
  e.nsset = std::numeric_limits<dns::NssetId>::max();
  e.domains_hosted = std::numeric_limits<std::uint64_t>::max();
  e.domains_measured = std::numeric_limits<std::uint32_t>::max();
  e.baseline_rtt_ms = 1e308;
  e.peak_impact = 5e-324;
  e.mean_impact = -1.5;
  e.ok = 1;
  e.timeouts = 2;
  e.servfails = std::numeric_limits<std::uint32_t>::max();
  e.failure_rate = 0.125;
  e.resilience.anycast_class = anycast::AnycastClass::Full;
  e.resilience.distinct_asns = 7;
  e.resilience.distinct_slash24 = 9;
  e.resilience.nameserver_count = 13;
  e.resilience.asn = std::numeric_limits<topology::Asn>::max();
  e.resilience.org = std::string("with\0nul", 8);

  const std::string path = temp_path("columnar_extremes.drs");
  {
    store::Writer writer(path);
    store::write_dataset<store::EventColumns>(writer, "events", rows);
    writer.finish();
  }
  {
    const store::Reader reader(path);
    EXPECT_EQ(stored_rows(reader), rows);
    store::ColumnArena arena;
    expect_same_frame(store::OwnedEventFrame(rows).frame(),
                      store::read_event_frame(reader, arena));
  }
  std::filesystem::remove(path);
}

TEST_F(ColumnarParity, ImpactSummaryBitIdentical) {
  const ImpactSummary row = impact_oracle(result_->joined);
  const ImpactSummary col = impact_summary_columnar(*frame_);
  EXPECT_EQ(col.events, row.events);
  EXPECT_EQ(col.impaired_10x, row.impaired_10x);
  EXPECT_EQ(col.severe_100x, row.severe_100x);
}

TEST_F(ColumnarParity, FailureSummaryBitIdentical) {
  const FailureSummary row = failure_oracle(result_->joined);
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
  expect_series_equal(duration_impact_series_columnar(*frame_),
                      duration_oracle(result_->joined));
}

TEST_F(ColumnarParity, IntensitySeriesBitIdentical) {
  const telescope::Darknet& darknet = result_->darknet;
  expect_series_equal(
      intensity_impact_series_columnar(*frame_, darknet),
      series_oracle(result_->joined, [&](const NssetAttackEvent& ev) {
        return ev.rsdos.max_ppm * darknet.extrapolation_factor() / 60.0;
      }));
}

TEST_F(ColumnarParity, AnycastGroupsBitIdentical) {
  expect_groups_equal(impact_by_anycast_columnar(*frame_),
                      anycast_oracle(result_->joined));
}

// A diversity count bands as 1 (none recorded counts as 1), 2 or 3+.
std::string band_of(std::uint32_t n, const std::string& one,
                    const std::string& two, const std::string& more) {
  return n <= 1 ? one : n == 2 ? two : more;
}

TEST_F(ColumnarParity, AsDiversityGroupsBitIdentical) {
  expect_groups_equal(
      impact_by_as_diversity_columnar(*frame_),
      group_oracle(result_->joined, {"1 ASN", "2 ASNs", "3+ ASNs"},
                   [](const NssetAttackEvent& ev) {
                     return band_of(ev.resilience.distinct_asns, "1 ASN",
                                    "2 ASNs", "3+ ASNs");
                   }));
}

TEST_F(ColumnarParity, PrefixDiversityGroupsBitIdentical) {
  expect_groups_equal(
      impact_by_prefix_diversity_columnar(*frame_),
      group_oracle(result_->joined, {"1 /24", "2 /24s", "3+ /24s"},
                   [](const NssetAttackEvent& ev) {
                     return band_of(ev.resilience.distinct_slash24, "1 /24",
                                    "2 /24s", "3+ /24s");
                   }));
}

TEST_F(ColumnarParity, MonthlyRollupMatchesRowReference) {
  const auto row = monthly_oracle(result_->joined);
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
  const ImpactSummary impact = impact_oracle(result_->joined);
  EXPECT_EQ(analysis.impact.events, impact.events);
  EXPECT_EQ(analysis.impact.impaired_10x, impact.impaired_10x);
  EXPECT_EQ(analysis.impact.severe_100x, impact.severe_100x);
  const FailureSummary failures = failure_oracle(result_->joined);
  EXPECT_EQ(analysis.failures.events_with_failures,
            failures.events_with_failures);
  EXPECT_EQ(analysis.duration_series.pearson,
            duration_oracle(result_->joined).pearson);
  const auto groups = anycast_oracle(result_->joined);
  ASSERT_EQ(analysis.by_anycast.size(), groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(analysis.by_anycast[i].events, groups[i].events);
    EXPECT_EQ(analysis.by_anycast[i].median_impact, groups[i].median_impact);
  }
  EXPECT_EQ(analysis.monthly.size(), monthly_oracle(result_->joined).size());
  EXPECT_TRUE(analysis.mapped);
}

}  // namespace
}  // namespace ddos::core
