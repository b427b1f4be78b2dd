// The whole-run reference for the run executor's bit-identity tests: the
// public pipeline stages composed in their plain materialized order —
// RSDoSFeed::ingest + events(), derive_sweep_plan, every plan day swept
// and folded in place, then JoinPipeline::run over every event — the same
// composition as bench/e2e/layers.cpp's compose_generate. It shares no
// code with the executor beyond those stage functions (no channels, no
// incremental stitcher, no per-event join slots, no retirement), so the
// scenario tests compare the executor against an independent path rather
// than against itself.
#pragma once

#include <span>
#include <vector>

#include "core/join.h"
#include "core/resilience.h"
#include "exec/pool.h"
#include "openintel/sweeper.h"
#include "scenario/driver.h"
#include "scenario/plan.h"

namespace ddos::scenario {

inline LongitudinalResult reference_run(const LongitudinalConfig& config) {
  LongitudinalResult result;
  result.world = build_world(config.world);
  result.workload = generate_workload(*result.world, config.workload);
  result.feed = telescope::RSDoSFeed(config.inference, config.backscatter);
  result.feed.ingest(result.workload.schedule, result.darknet,
                     config.feed_seed);
  result.feed_records = result.feed.records().size();
  result.events = result.feed.events();
  const World& world = *result.world;

  const SweepPlan plan =
      derive_sweep_plan(world, result.events, nullptr, nullptr);
  const PlanRetention retention{plan.daily_keys, plan.window_keys,
                                plan.ns_seen_keys};
  openintel::SweeperParams sp;
  sp.resolver = config.resolver;
  sp.model = config.model;
  sp.seed = config.sweep_seed;
  const openintel::Sweeper sweeper(world.registry, result.workload.schedule,
                                   sp);
  for (const auto& [day, domains] : plan.days) {
    const std::vector<dns::DomainId> day_domains = domains.sorted_keys();
    sweeper.sweep_domains_batched(
        day, day_domains, exec::global_pool(),
        [&result, &retention](std::span<const openintel::Measurement> batch) {
          result.store.add_batch(batch, retention);
          result.swept_measurements += batch.size();
        });
  }

  const core::ResilienceClassifier classifier(world.registry, world.census,
                                              world.routes, world.orgs);
  core::JoinPipeline pipeline(world.registry, result.store, classifier,
                              config.join);
  result.joined = pipeline.run(result.events);
  result.join_stats = pipeline.stats();
  return result;
}

}  // namespace ddos::scenario
