#include "core/export.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/columnar.h"
#include "scenario/driver.h"
#include "store/dataset.h"

namespace ddos::core {
namespace {

NssetAttackEvent sample_event() {
  NssetAttackEvent ev;
  ev.rsdos.victim = netsim::IPv4Addr(10, 1, 2, 3);
  ev.rsdos.start_window = 1000;
  ev.rsdos.end_window = 1011;
  ev.rsdos.max_ppm = 1234.5;
  ev.nsset = 42;
  ev.domains_hosted = 777;
  ev.domains_measured = 31;
  ev.baseline_rtt_ms = 17.25;
  ev.peak_impact = 123.4;
  ev.mean_impact = 45.6;
  ev.ok = 28;
  ev.timeouts = 2;
  ev.servfails = 1;
  ev.failure_rate = 3.0 / 31.0;
  ev.resilience.anycast_class = anycast::AnycastClass::Partial;
  ev.resilience.distinct_asns = 2;
  ev.resilience.distinct_slash24 = 3;
  ev.resilience.org = "NForce B.V.";
  return ev;
}

TEST(EventsCsv, RoundTripPreservesFields) {
  std::ostringstream out;
  write_events_csv(out, {sample_event()});
  std::istringstream in(out.str());
  const auto events = read_events_csv(in);
  ASSERT_EQ(events.size(), 1u);
  const auto& ev = events[0];
  EXPECT_EQ(ev.rsdos.victim.to_string(), "10.1.2.3");
  EXPECT_EQ(ev.nsset, 42u);
  EXPECT_EQ(ev.rsdos.start_window, 1000);
  EXPECT_EQ(ev.rsdos.end_window, 1011);
  EXPECT_NEAR(ev.rsdos.max_ppm, 1234.5, 1e-3);
  EXPECT_EQ(ev.domains_hosted, 777u);
  EXPECT_EQ(ev.domains_measured, 31u);
  EXPECT_NEAR(ev.baseline_rtt_ms, 17.25, 1e-4);
  EXPECT_NEAR(ev.peak_impact, 123.4, 1e-4);
  EXPECT_NEAR(ev.mean_impact, 45.6, 1e-4);
  EXPECT_EQ(ev.ok, 28u);
  EXPECT_EQ(ev.timeouts, 2u);
  EXPECT_EQ(ev.servfails, 1u);
  EXPECT_NEAR(ev.failure_rate, 3.0 / 31.0, 1e-9);
  EXPECT_EQ(ev.resilience.anycast_class, anycast::AnycastClass::Partial);
  EXPECT_EQ(ev.resilience.distinct_asns, 2u);
  EXPECT_EQ(ev.resilience.distinct_slash24, 3u);
  EXPECT_EQ(ev.resilience.org, "NForce B.V.");
}

TEST(EventsCsv, OrgWithCommaSurvives) {
  auto ev = sample_event();
  ev.resilience.org = "Acme, Inc.";
  std::ostringstream out;
  write_events_csv(out, {ev});
  std::istringstream in(out.str());
  const auto events = read_events_csv(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].resilience.org, "Acme, Inc.");
}

TEST(EventsCsv, SkipsMalformedRows) {
  std::istringstream in(events_csv_header() +
                        "\nnot,a,row\n"
                        "999.1.1.1,1,1,1,1,1,1,1,1,1,1,1,1,unicast,1,1,x\n");
  EXPECT_TRUE(read_events_csv(in).empty());
}

TEST(EventsCsv, ReportCountsReadAndSkippedRows) {
  std::ostringstream out;
  write_events_csv(out, {sample_event(), sample_event()});
  // Append one malformed row and a blank line; only the former is a skip.
  std::istringstream in(out.str() + "not,a,row\n\n");
  EventsCsvReport report;
  const auto events = read_events_csv(in, &report);
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(report.rows_read, 2u);
  EXPECT_EQ(report.rows_skipped, 1u);
}

TEST(EventsCsv, ReportIsCleanOnWellFormedInput) {
  std::ostringstream out;
  write_events_csv(out, {sample_event()});
  std::istringstream in(out.str());
  EventsCsvReport report;
  read_events_csv(in, &report);
  EXPECT_EQ(report.rows_read, 1u);
  EXPECT_EQ(report.rows_skipped, 0u);
}

TEST(EventsCsv, PipelineEventsRoundTripAggregates) {
  scenario::LongitudinalConfig cfg = scenario::small_longitudinal_config(33);
  cfg.workload.scale = 300.0;
  const auto result = scenario::run_longitudinal(cfg);
  std::ostringstream out;
  write_events_csv(out, result.joined);
  std::istringstream in(out.str());
  const auto events = read_events_csv(in);
  ASSERT_EQ(events.size(), result.joined.size());
  // The figure-level analyses over the re-imported events must agree.
  const store::OwnedEventFrame run(result.joined);
  const store::OwnedEventFrame imported(events);
  const auto a = impact_summary_columnar(run.frame());
  const auto b = impact_summary_columnar(imported.frame());
  EXPECT_EQ(a.impaired_10x, b.impaired_10x);
  EXPECT_EQ(a.severe_100x, b.severe_100x);
  const auto fa = failure_summary_columnar(run.frame());
  const auto fb = failure_summary_columnar(imported.frame());
  EXPECT_EQ(fa.timeouts, fb.timeouts);
  EXPECT_EQ(fa.servfails, fb.servfails);
}

}  // namespace
}  // namespace ddos::core
