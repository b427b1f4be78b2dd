// End-to-end integration: the full longitudinal pipeline at test scale,
// asserting cross-module invariants that no unit test can see.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/analysis.h"
#include "core/columnar.h"
#include "scenario/driver.h"
#include "store/dataset.h"

namespace ddos::scenario {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LongitudinalConfig cfg = small_longitudinal_config(21);
    cfg.world.provider_count = 100;
    cfg.world.domain_count = 6000;
    cfg.workload.scale = 150.0;
    result_ = new LongitudinalResult(run_longitudinal(cfg));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static LongitudinalResult* result_;
};

LongitudinalResult* PipelineTest::result_ = nullptr;

TEST_F(PipelineTest, ProducesEventsAndJoins) {
  EXPECT_GT(result_->events.size(), 1000u);
  EXPECT_GT(result_->joined.size(), 10u);
  EXPECT_GT(result_->swept_measurements, 1000u);
}

TEST_F(PipelineTest, JoinStatsAreConsistent) {
  const auto& s = result_->join_stats;
  EXPECT_EQ(s.total_events, result_->events.size());
  EXPECT_EQ(s.joined, result_->joined.size());
  EXPECT_LE(s.dns_events, s.total_events);
  EXPECT_LE(s.open_resolver_filtered + s.non_dns + s.dns_events,
            s.total_events);
}

TEST_F(PipelineTest, EveryJoinedEventIsWellFormed) {
  for (const auto& ev : result_->joined) {
    EXPECT_GE(ev.domains_measured, 5u);  // the §6.3 floor
    EXPECT_GT(ev.domains_hosted, 0u);
    EXPECT_GT(ev.baseline_rtt_ms, 0.0);
    EXPECT_GE(ev.peak_impact, 0.0);
    EXPECT_EQ(ev.ok + ev.timeouts + ev.servfails, ev.domains_measured);
    EXPECT_GE(ev.failure_rate, 0.0);
    EXPECT_LE(ev.failure_rate, 1.0);
    EXPECT_GE(ev.duration_s(), netsim::kSecondsPerWindow);
    EXPECT_FALSE(ev.resilience.org.empty());
    EXPECT_GE(ev.resilience.distinct_slash24, 1u);
    // Victims must be nameserver IPs and never open resolvers.
    EXPECT_TRUE(result_->world->registry.is_ns_ip(ev.rsdos.victim));
    EXPECT_FALSE(result_->world->registry.is_open_resolver(ev.rsdos.victim));
  }
}

TEST_F(PipelineTest, MergedEventsAreDisjointPerNsset) {
  std::map<dns::NssetId, netsim::WindowIndex> last_end;
  auto sorted = result_->joined;
  std::sort(sorted.begin(), sorted.end(),
            [](const core::NssetAttackEvent& a,
               const core::NssetAttackEvent& b) {
              if (a.nsset != b.nsset) return a.nsset < b.nsset;
              return a.rsdos.start_window < b.rsdos.start_window;
            });
  for (const auto& ev : sorted) {
    const auto it = last_end.find(ev.nsset);
    if (it != last_end.end()) {
      EXPECT_GT(ev.rsdos.start_window, it->second)
          << "overlapping merged events on nsset " << ev.nsset;
    }
    last_end[ev.nsset] = ev.rsdos.end_window;
  }
}

TEST_F(PipelineTest, TelescopeOnlySeesRandomSpoofedAttacks) {
  // Every stitched event's victim must correspond to at least one visible
  // attack in the schedule; invisible vectors alone never produce events.
  std::unordered_set<netsim::IPv4Addr> visible_targets;
  for (const auto& a : result_->workload.schedule.attacks()) {
    if (a.spoof == attack::SpoofType::RandomUniform)
      visible_targets.insert(a.target);
  }
  for (const auto& ev : result_->events) {
    EXPECT_TRUE(visible_targets.contains(ev.victim))
        << ev.victim.to_string();
  }
}

TEST_F(PipelineTest, AnycastNeverSuffersSevereImpact) {
  for (const auto& ev : result_->joined) {
    if (ev.resilience.anycast_class == anycast::AnycastClass::Full) {
      EXPECT_LT(ev.peak_impact, 100.0)
          << "Fig. 11: no anycast deployment at 100x";
      EXPECT_FALSE(ev.complete_failure());
    }
  }
}

TEST_F(PipelineTest, CompleteFailuresAreUnicastSingleAsn) {
  const auto attr = core::failure_attribution_columnar(
      store::OwnedEventFrame(result_->joined).frame());
  if (attr.complete_failures > 0) {
    EXPECT_GT(attr.single_asn_share(), 0.5);
    EXPECT_GT(attr.unicast_share(), 0.5);
  }
}

TEST_F(PipelineTest, IntensityDoesNotPredictImpact) {
  const auto series = core::intensity_impact_series_columnar(
      store::OwnedEventFrame(result_->joined).frame(), result_->darknet);
  if (series.n() >= 20) {
    EXPECT_LT(std::abs(series.pearson), 0.5);  // Fig. 9's key takeaway
  }
}

TEST_F(PipelineTest, MonthlySummaryCoversSeventeenMonths) {
  const auto rows =
      core::monthly_summary(result_->events, result_->world->registry);
  EXPECT_GE(rows.size(), 15u);  // sampling may leave a thin month empty
  EXPECT_LE(rows.size(), 17u);
  const auto totals = core::summary_totals(rows);
  EXPECT_EQ(totals.total_attacks(), result_->events.size());
  EXPECT_GT(totals.dns_attack_share(), 0.003);
  EXPECT_LT(totals.dns_attack_share(), 0.05);
}

TEST_F(PipelineTest, SparseSweepOnlyTouchesAttackAdjacentState) {
  // The retention predicates must have kept window aggregates only inside
  // inferred attack windows of NSSets containing a victim.
  EXPECT_GT(result_->store.window_entries(), 0u);
  EXPECT_GT(result_->store.daily_entries(), 0u);
  // Memory sanity: far fewer entries than a full 17-month dense sweep.
  EXPECT_LT(result_->store.window_entries(), 500000u);
}

TEST_F(PipelineTest, DeterministicAcrossRuns) {
  LongitudinalConfig cfg = small_longitudinal_config(21);
  cfg.world.provider_count = 100;
  cfg.world.domain_count = 6000;
  cfg.workload.scale = 150.0;
  const auto again = run_longitudinal(cfg);
  EXPECT_EQ(again.events.size(), result_->events.size());
  ASSERT_EQ(again.joined.size(), result_->joined.size());
  for (std::size_t i = 0; i < again.joined.size(); ++i) {
    EXPECT_EQ(again.joined[i].nsset, result_->joined[i].nsset);
    EXPECT_DOUBLE_EQ(again.joined[i].peak_impact,
                     result_->joined[i].peak_impact);
    EXPECT_EQ(again.joined[i].domains_measured,
              result_->joined[i].domains_measured);
  }
}

}  // namespace
}  // namespace ddos::scenario
