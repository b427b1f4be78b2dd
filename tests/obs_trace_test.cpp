#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "obs/obs.h"
#include "obs/report.h"

namespace ddos::obs {
namespace {

TEST(ScopedSpan, RecordsNameDurationAndItems) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "stage.sweep");
    span.set_items(100);
    span.add_items(25);
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "stage.sweep");
  EXPECT_EQ(events[0].items, 125u);
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_GT(events[0].duration_ns, 0u);
  EXPECT_GT(events[0].items_per_sec(), 0.0);
}

TEST(ScopedSpan, NestingDepths) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer");
    {
      ScopedSpan mid(&tracer, "mid");
      { ScopedSpan inner(&tracer, "inner"); }
    }
    { ScopedSpan sibling(&tracer, "sibling"); }
  }
  const auto events = tracer.events();  // completion order
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].name, "mid");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "sibling");
  EXPECT_EQ(events[2].depth, 1u);
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].depth, 0u);
  // Children are contained in the parent's [start, start+dur] interval —
  // what chrome://tracing uses to reconstruct the hierarchy.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].duration_ns,
            events[3].start_ns + events[3].duration_ns);
}

TEST(ScopedSpan, NullTracerIsNoOp) {
  ScopedSpan span(nullptr, "disabled");
  EXPECT_FALSE(span.enabled());
  span.set_items(5);
  span.arg("k", static_cast<std::int64_t>(1));
  EXPECT_EQ(span.elapsed_ns(), 0u);
  // Destruction records nothing and must not crash.
}

TEST(ScopedSpan, DepthResetAfterDisabledSpans) {
  // Disabled spans must not leak nesting depth into later enabled ones.
  { ScopedSpan off(nullptr, "off"); }
  Tracer tracer;
  { ScopedSpan on(&tracer, "on"); }
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].depth, 0u);
}

TEST(Tracer, ThreadedSpansKeepThreadIds) {
  Tracer tracer;
  std::thread worker([&] { ScopedSpan span(&tracer, "worker"); });
  worker.join();
  { ScopedSpan span(&tracer, "main"); }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].thread_id, events[1].thread_id);
  // Both threads start their own hierarchy at depth 0.
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 0u);
}

TEST(Tracer, ChromeJsonShape) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "sweep \"day\"");
    span.set_items(7);
    span.arg("day", static_cast<std::int64_t>(123));
  }
  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"items\":7"), std::string::npos);
  EXPECT_NE(json.find("\"day\":\"123\""), std::string::npos);
  // Quotes in span names must be escaped.
  EXPECT_NE(json.find("sweep \\\"day\\\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(RunReport, JsonContainsConfigResultsStagesAndMetrics) {
  Observer obs;
  obs.pipeline.sweep_measurements.inc(321);
  {
    ScopedSpan root(&obs.tracer(), "run_longitudinal");
    {
      ScopedSpan stage(&obs.tracer(), "sweep");
      stage.set_items(321);
      // Depth-2 spans are trace-only detail, not report stages.
      ScopedSpan day(&obs.tracer(), "sweep.day");
    }
  }
  RunReport report("run");
  report.add_config("seed", static_cast<std::int64_t>(42));
  report.add_config("scale", 30.0);
  report.add_config("preset", "small");
  report.add_result("joined", static_cast<std::int64_t>(12));

  std::ostringstream out;
  report.write(out, obs);
  const std::string json = out.str();
  EXPECT_EQ(json.find("{\"tool\":\"ddosrepro\",\"command\":\"run\""), 0u);
  EXPECT_NE(json.find("\"config\":{\"seed\":42,\"scale\":30,\"preset\":\"small\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"results\":{\"joined\":12}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"run_longitudinal\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sweep\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"sweep.day\""), std::string::npos);
  EXPECT_NE(json.find("\"items\":321"), std::string::npos);
  EXPECT_NE(json.find("\"items_per_sec\":"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sweep.measurements\""), std::string::npos);
}

}  // namespace
}  // namespace ddos::obs
