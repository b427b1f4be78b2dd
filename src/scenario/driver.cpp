#include "scenario/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/channel.h"
#include "exec/pool.h"
#include "exec/stage.h"
#include "obs/obs.h"
#include "scenario/plan.h"
#include "store/dataset.h"
#include "store/epoch.h"
#include "store/reader.h"
#include "store/scan.h"
#include "store/writer.h"
#include "util/flat_map.h"
#include "util/strings.h"

namespace ddos::scenario {

LongitudinalConfig default_longitudinal_config() {
  LongitudinalConfig cfg;
  cfg.workload.model = cfg.model;
  return cfg;
}

LongitudinalConfig small_longitudinal_config(std::uint64_t seed) {
  LongitudinalConfig cfg;
  cfg.world = small_world_params(seed);
  cfg.workload.seed = seed ^ 0x1234;
  cfg.workload.scale = 400.0;
  cfg.workload.model = cfg.model;
  cfg.sweep_seed = seed ^ 0x77;
  cfg.feed_seed = seed ^ 0x99;
  return cfg;
}

namespace {

// Shared head of the materialized and streaming drivers: world + workload
// into `result`. The telescope stage differs between the two (materialized
// retains the record vector; streaming retires it shard by shard), so it
// lives with each driver.
void run_world_and_workload(const LongitudinalConfig& config,
                            LongitudinalResult& result, obs::Tracer* tracer) {
  {
    obs::ScopedSpan span(tracer, "world.build");
    result.world = build_world(config.world);
    span.set_items(result.world->registry.domain_count());
  }
  {
    obs::ScopedSpan span(tracer, "workload.generate");
    result.workload = generate_workload(*result.world, config.workload);
    span.set_items(result.workload.schedule.size());
  }
}

}  // namespace

LongitudinalResult run_longitudinal(const LongitudinalConfig& config) {
  obs::Observer* observer = obs::Observer::installed();
  obs::Tracer* tracer = observer ? &observer->tracer() : nullptr;
  obs::ScopedSpan total(tracer, "run_longitudinal");

  LongitudinalResult result;
  run_world_and_workload(config, result, tracer);
  // Telescope: observe backscatter, infer the feed, stitch events.
  {
    obs::ScopedSpan span(tracer, "telescope.infer");
    result.feed = telescope::RSDoSFeed(config.inference, config.backscatter);
    result.feed.ingest(result.workload.schedule, result.darknet,
                       config.feed_seed);
    result.feed_records = result.feed.records().size();
    result.events = result.feed.events();
    span.set_items(result.events.size());
  }
  const World& world = *result.world;

  const SweepPlan plan =
      derive_sweep_plan(world, result.events, tracer, observer);
  const PlanRetention retention{plan.daily_keys, plan.window_keys,
                                plan.ns_seen_keys};
  const auto& sweep_plan = plan.days;

  // ---- Sparse sweep.
  {
    obs::ScopedSpan sweep_span(tracer, "sweep");
    openintel::SweeperParams sp;
    sp.resolver = config.resolver;
    sp.model = config.model;
    sp.seed = config.sweep_seed;
    const openintel::Sweeper sweeper(world.registry, result.workload.schedule,
                                     sp);
    const std::uint64_t days_total = sweep_plan.size();
    std::uint64_t days_done = 0;
    std::vector<dns::DomainId> day_domains;
    for (const auto& [day, domains] : sweep_plan) {
      obs::ScopedSpan day_span(tracer, "sweep.day");
      day_span.arg("day", static_cast<std::int64_t>(day));
      day_span.set_items(domains.size());
      day_domains = domains.sorted_keys();
      // Parallel across domains within the day; the batch sink below runs
      // on this thread in shard (= domain) order, and the store's grouped
      // fold preserves per-key measurement order, so the resulting state
      // is bit-identical to per-measurement add() at any thread count.
      sweeper.sweep_domains_batched(
          day, day_domains, exec::global_pool(),
          [&result, &retention](std::span<const openintel::Measurement> batch) {
            result.store.add_batch(batch, retention);
            result.swept_measurements += batch.size();
          });
      ++days_done;
      if (observer) {
        observer->pipeline.run_days_swept.set(static_cast<double>(days_done));
        obs::ProgressEvent progress;
        progress.stage = "sweep";
        progress.day = day;
        progress.days_done = days_done;
        progress.days_total = days_total;
        progress.measurements = result.swept_measurements;
        progress.events = result.events.size();
        const double elapsed_s =
            static_cast<double>(total.elapsed_ns()) / 1e9;
        progress.sweep_rate_per_s =
            elapsed_s > 0.0
                ? static_cast<double>(result.swept_measurements) / elapsed_s
                : 0.0;
        observer->emit_progress(progress, days_done == days_total);
      }
    }
    sweep_span.set_items(result.swept_measurements);
  }
  if (observer) {
    observer->pipeline.run_store_measurements.set(
        static_cast<double>(result.swept_measurements));
  }

  // ---- Join.
  {
    obs::ScopedSpan span(tracer, "join");
    const core::ResilienceClassifier classifier(world.registry, world.census,
                                                world.routes, world.orgs);
    core::JoinPipeline pipeline(world.registry, result.store, classifier,
                                config.join);
    result.joined = pipeline.run(result.events);
    result.join_stats = pipeline.stats();
    span.set_items(result.joined.size());
  }
  if (observer) {
    obs::ProgressEvent progress;
    progress.stage = "join";
    progress.days_done = sweep_plan.size();
    progress.days_total = sweep_plan.size();
    progress.measurements = result.swept_measurements;
    progress.events = result.events.size();
    progress.joined = result.joined.size();
    observer->emit_progress(progress, /*force=*/true);
  }
  return result;
}

// ---- DRS persistence (generate/analyze stage split).

namespace {

// %.17g round-trips every finite double exactly (17 significant digits);
// the store's provenance must restore configs bit-for-bit.
std::string meta_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t meta_u64(const store::Reader& reader, const std::string& key) {
  std::uint64_t out = 0;
  if (!util::parse_u64(reader.meta_value(key), out)) {
    throw store::StoreError(reader.path() + ": meta key '" + key +
                            "' is not an unsigned integer");
  }
  return out;
}

double meta_f64(const store::Reader& reader, const std::string& key) {
  double out = 0.0;
  if (!util::parse_double(reader.meta_value(key), out)) {
    throw store::StoreError(reader.path() + ": meta key '" + key +
                            "' is not a double");
  }
  return out;
}

void check_count(const store::Reader& reader, const std::string& what,
                 std::uint64_t stored, std::uint64_t got) {
  if (stored != got) {
    throw store::StoreError(reader.path() + ": " + what + " count mismatch (" +
                            std::to_string(got) + " decoded, provenance says " +
                            std::to_string(stored) +
                            ") — store and generating run disagree");
  }
}

// The provenance meta block, shared between save_run and the streaming
// writer so the two paths can never emit different key sets or orders (the
// footer serialises meta in insertion order, and CI compares the files
// byte for byte).
void write_provenance_meta(store::Writer& writer,
                           const LongitudinalConfig& config, unsigned threads) {
  writer.add_meta("format.tool", "ddosrepro");

  const WorldParams& w = config.world;
  writer.add_meta("world.seed", std::to_string(w.seed));
  writer.add_meta("world.provider_count", std::to_string(w.provider_count));
  writer.add_meta("world.domain_count", std::to_string(w.domain_count));
  writer.add_meta("world.size_exponent", meta_double(w.size_exponent));
  writer.add_meta("world.anycast_recall", meta_double(w.anycast_recall));
  writer.add_meta("world.open_resolver_misconfigs",
                  std::to_string(w.open_resolver_misconfigs));
  writer.add_meta("world.single_ns_share", meta_double(w.single_ns_share));
  writer.add_meta("world.lame_ns_share", meta_double(w.lame_ns_share));
  writer.add_meta("world.capacity_base_pps", meta_double(w.capacity_base_pps));
  writer.add_meta("world.capacity_exponent", meta_double(w.capacity_exponent));
  writer.add_meta("world.legit_pps_per_domain",
                  meta_double(w.legit_pps_per_domain));
  writer.add_meta("world.legit_pps_floor", meta_double(w.legit_pps_floor));

  const LongitudinalParams& wl = config.workload;
  writer.add_meta("workload.seed", std::to_string(wl.seed));
  writer.add_meta("workload.scale", meta_double(wl.scale));
  writer.add_meta("workload.multivector_prob", meta_double(wl.multivector_prob));
  writer.add_meta("workload.victim_reuse_prob",
                  meta_double(wl.victim_reuse_prob));
  writer.add_meta("workload.dns_port_intensity_boost",
                  meta_double(wl.dns_port_intensity_boost));
  writer.add_meta("workload.scripted_cases", wl.scripted_cases ? "1" : "0");

  const telescope::InferenceParams& inf = config.inference;
  writer.add_meta("inference.min_packets_per_window",
                  std::to_string(inf.min_packets_per_window));
  writer.add_meta("inference.min_distinct_slash16",
                  std::to_string(inf.min_distinct_slash16));
  writer.add_meta("inference.min_ppm", meta_double(inf.min_ppm));
  writer.add_meta("inference.max_gap_windows",
                  std::to_string(inf.max_gap_windows));

  const core::JoinParams& jp = config.join;
  writer.add_meta("join.min_measured_domains",
                  std::to_string(jp.min_measured_domains));
  writer.add_meta("join.match_slash24", jp.match_slash24 ? "1" : "0");
  writer.add_meta("join.merge_concurrent", jp.merge_concurrent ? "1" : "0");

  writer.add_meta("run.sweep_seed", std::to_string(config.sweep_seed));
  writer.add_meta("run.feed_seed", std::to_string(config.feed_seed));
  writer.add_meta("run.threads", std::to_string(threads));
}

// Result/stat counts, written by save_run right after the provenance and
// by the streaming writer at the end of the run; add_meta overwrites in
// place for existing keys, so insertion position — not rewrite time —
// fixes the footer order either way.
void write_result_meta(store::Writer& writer, std::uint64_t attacks,
                       std::uint64_t feed_records, std::uint64_t events,
                       std::uint64_t joined, std::uint64_t swept,
                       const core::JoinStats& js) {
  writer.add_meta("result.attacks", std::to_string(attacks));
  writer.add_meta("result.feed_records", std::to_string(feed_records));
  writer.add_meta("result.events", std::to_string(events));
  writer.add_meta("result.joined", std::to_string(joined));
  writer.add_meta("result.swept_measurements", std::to_string(swept));

  writer.add_meta("stats.total_events", std::to_string(js.total_events));
  writer.add_meta("stats.open_resolver_filtered",
                  std::to_string(js.open_resolver_filtered));
  writer.add_meta("stats.non_dns", std::to_string(js.non_dns));
  writer.add_meta("stats.not_seen_day_before",
                  std::to_string(js.not_seen_day_before));
  writer.add_meta("stats.below_measurement_floor",
                  std::to_string(js.below_measurement_floor));
  writer.add_meta("stats.no_baseline", std::to_string(js.no_baseline));
  writer.add_meta("stats.joined", std::to_string(js.joined));
  writer.add_meta("stats.dns_events", std::to_string(js.dns_events));
}

}  // namespace

std::uint64_t save_run(const std::string& path,
                       const LongitudinalConfig& config, unsigned threads,
                       const LongitudinalResult& result) {
  obs::Observer* observer = obs::Observer::installed();
  obs::ScopedSpan span(observer ? &observer->tracer() : nullptr, "store.write");

  store::Writer writer(path);
  write_provenance_meta(writer, config, threads);
  write_result_meta(writer, result.workload.schedule.size(),
                    result.feed_records, result.events.size(),
                    result.joined.size(), result.swept_measurements,
                    result.join_stats);

  store::write_feed_records(writer, result.feed.records());
  store::write_measurements(writer, result.store);
  store::write_joined_events(writer, result.joined);

  writer.finish();
  const std::uint64_t bytes = writer.bytes_written();
  span.set_items(writer.column_count());
  if (observer) {
    observer->pipeline.store_bytes_written.set(static_cast<double>(bytes));
  }
  return bytes;
}

// ---- sharded generation (plan/execute; compaction is store::merge_stores).

ShardRunResult run_shard(const LongitudinalConfig& config,
                         const ShardSpec& spec, unsigned threads,
                         const std::string& store_path) {
  if (spec.count == 0 || spec.index >= spec.count) {
    throw std::invalid_argument(
        "run_shard: need shard index < count, count >= 1");
  }
  obs::Observer* observer = obs::Observer::installed();
  obs::Tracer* tracer = observer ? &observer->tracer() : nullptr;
  obs::ScopedSpan total(tracer, "run_shard");
  total.arg("shard", static_cast<std::int64_t>(spec.index));
  total.arg("count", static_cast<std::int64_t>(spec.count));

  LongitudinalResult result;
  run_world_and_workload(config, result, tracer);
  {
    obs::ScopedSpan span(tracer, "telescope.infer");
    result.feed = telescope::RSDoSFeed(config.inference, config.backscatter);
    result.feed.ingest(result.workload.schedule, result.darknet,
                       config.feed_seed);
    result.feed_records = result.feed.records().size();
    result.events = result.feed.events();
    span.set_items(result.events.size());
  }
  const World& world = *result.world;

  // The GLOBAL plan: every shard derives the identical retention sets,
  // day-domain sets and day cuts from the identical event list (world,
  // workload, telescope and sweep are pure functions of their seeds, so
  // no seed depends on process layout). A day swept here is therefore
  // bit-identical to the same day swept by the whole-world run, and all
  // shards agree on the partition without coordinating.
  const SweepPlan plan =
      derive_sweep_plan(world, result.events, tracer, observer);
  const PlanRetention retention{plan.daily_keys, plan.window_keys,
                                plan.ns_seen_keys};
  const ShardBounds bounds = shard_bounds(plan, spec);

  // Owned events (canonical stitch order preserved) and the sweep halo:
  // an event owned here reads daily/ns_seen state at first_day-1 and its
  // attack windows, all on days <= its final (owning) day — so sweeping
  // [min over owned of first_day-1, day_hi) with the global retention
  // covers every read this shard's joins perform.
  std::vector<std::uint32_t> owned;
  netsim::DayIndex halo_lo = bounds.day_lo;
  for (std::uint32_t idx = 0;
       idx < static_cast<std::uint32_t>(result.events.size()); ++idx) {
    const auto& ev = result.events[idx];
    if (!bounds.owns_event(ev)) continue;
    owned.push_back(idx);
    halo_lo = std::min(halo_lo, ev.start_time().day() - 1);
  }

  // ---- Sparse sweep over the shard's day range (owned days + halo).
  {
    obs::ScopedSpan sweep_span(tracer, "sweep");
    openintel::SweeperParams sp;
    sp.resolver = config.resolver;
    sp.model = config.model;
    sp.seed = config.sweep_seed;
    const openintel::Sweeper sweeper(world.registry, result.workload.schedule,
                                     sp);
    std::uint64_t days_total = 0;
    for (const auto& [day, domains] : plan.days) {
      if (day >= halo_lo && day < bounds.day_hi) ++days_total;
    }
    std::uint64_t days_done = 0;
    std::vector<dns::DomainId> day_domains;
    for (const auto& [day, domains] : plan.days) {
      if (day < halo_lo || day >= bounds.day_hi) continue;
      // Halo days below day_lo serve this shard's joins only; their
      // folded state is retired before the store is written and their
      // measurements belong to the preceding shard's count.
      const bool owned_day = bounds.owns_day(day);
      obs::ScopedSpan day_span(tracer, "sweep.day");
      day_span.arg("day", static_cast<std::int64_t>(day));
      day_span.set_items(domains.size());
      day_domains = domains.sorted_keys();
      sweeper.sweep_domains_batched(
          day, day_domains, exec::global_pool(),
          [&result, &retention,
           owned_day](std::span<const openintel::Measurement> batch) {
            result.store.add_batch(batch, retention);
            if (owned_day) result.swept_measurements += batch.size();
          });
      ++days_done;
      if (observer) {
        observer->pipeline.run_days_swept.set(static_cast<double>(days_done));
        obs::ProgressEvent progress;
        progress.stage = "sweep";
        progress.day = day;
        progress.days_done = days_done;
        progress.days_total = days_total;
        progress.measurements = result.swept_measurements;
        progress.events = result.events.size();
        const double elapsed_s = static_cast<double>(total.elapsed_ns()) / 1e9;
        progress.sweep_rate_per_s =
            elapsed_s > 0.0
                ? static_cast<double>(result.swept_measurements) / elapsed_s
                : 0.0;
        observer->emit_progress(progress, days_done == days_total);
      }
    }
    sweep_span.set_items(result.swept_measurements);
  }
  if (observer) {
    observer->pipeline.run_store_measurements.set(
        static_cast<double>(result.swept_measurements));
  }

  // ---- Join the owned events, in canonical stitch order, pre-merge.
  // The concurrent-event merge is deferred to the compaction stage (it is
  // a global sort over all shards' rows); src_event records each output
  // row's canonical telescope-event index so the merger can interleave
  // the shards back into exactly the single-process pre-merge vector.
  core::JoinStats stats;
  std::vector<std::uint64_t> src_event;
  {
    obs::ScopedSpan span(tracer, "join");
    const core::ResilienceClassifier classifier(world.registry, world.census,
                                                world.routes, world.orgs);
    const core::JoinPipeline pipeline(world.registry, result.store, classifier,
                                      config.join);
    stats.total_events = owned.size();
    core::JoinPipeline::BaselineCache baselines;
    for (const std::uint32_t idx : owned) {
      const std::size_t before = result.joined.size();
      pipeline.join_event(result.events[idx], result.joined, stats,
                          &baselines);
      for (std::size_t i = before; i < result.joined.size(); ++i) {
        src_event.push_back(idx);
      }
    }
    result.join_stats = stats;
    span.set_items(result.joined.size());
  }

  // Keep only owned-day state: the halo existed solely to serve reads, and
  // the preceding shard persists those days itself. After this the store
  // remnant is exactly the whole-run store restricted to [day_lo, day_hi).
  result.store.retire_days_below(bounds.day_lo);

  // ---- Shard store: save_run's exact meta/block layout plus a shard
  // manifest and the src_event column (both stripped by the merger).
  const auto [feed_lo, feed_hi] = shard_feed_slice(result.feed_records, spec);
  {
    obs::ScopedSpan span(tracer, "store.write");
    store::Writer writer(store_path);
    write_provenance_meta(writer, config, threads);
    write_result_meta(writer, result.workload.schedule.size(),
                      feed_hi - feed_lo, result.events.size(),
                      result.joined.size(), result.swept_measurements, stats);
    writer.add_meta("shard.index", std::to_string(spec.index));
    writer.add_meta("shard.count", std::to_string(spec.count));
    writer.add_meta("shard.owned_events", std::to_string(owned.size()));

    const std::vector<telescope::RSDoSRecord> slice(
        result.feed.records().begin() +
            static_cast<std::ptrdiff_t>(feed_lo),
        result.feed.records().begin() + static_cast<std::ptrdiff_t>(feed_hi));
    store::write_feed_records(writer, slice);
    store::write_measurements(writer, result.store);
    store::write_joined_events(writer, result.joined);
    writer.add_u64("shard", "src_event", src_event,
                   store::Encoding::DeltaVarint);

    writer.finish();
    result.store_bytes = writer.bytes_written();
    span.set_items(writer.column_count());
    if (observer) {
      observer->pipeline.store_bytes_written.set(
          static_cast<double>(result.store_bytes));
    }
  }

  ShardRunResult out;
  out.spec = spec;
  out.day_lo = bounds.day_lo;
  out.day_hi = bounds.day_hi;
  out.events_total = result.events.size();
  out.owned_events = owned.size();
  out.feed_rows = feed_hi - feed_lo;
  out.joined_rows = result.joined.size();
  out.swept_measurements = result.swept_measurements;
  out.store_bytes = result.store_bytes;
  return out;
}

// ---- streaming day-epoch pipeline.

namespace {

/// One sweep-plan day queued to the sweep stage.
struct SweepTask {
  netsim::DayIndex day = 0;
  std::vector<dns::DomainId> domains;  // sorted, from the plan's day set
};

/// One swept day's measurements, preserved as the sink-call batches in
/// sink-call order so the fold stage replays the exact add_batch sequence
/// the materialized driver performs.
struct SweptDay {
  netsim::DayIndex day = 0;
  std::vector<std::vector<openintel::Measurement>> batches;
};

}  // namespace

LongitudinalResult run_longitudinal_streaming(const LongitudinalConfig& config,
                                              const StreamingOptions& options) {
  if (options.window_days < 1) {
    throw std::invalid_argument(
        "streaming window_days must be >= 1 (day d's fold still feeds the "
        "day-after join)");
  }

  obs::Observer* observer = obs::Observer::installed();
  obs::Tracer* tracer = observer ? &observer->tracer() : nullptr;
  obs::ScopedSpan total(tracer, "run_longitudinal_streaming");

  LongitudinalResult result;
  run_world_and_workload(config, result, tracer);

  // Optional streaming DRS store, opened before the telescope stage so the
  // feed columns stream straight from the ingest shards: provenance meta
  // and feed blocks up front (save_run's block order starts with "feed"),
  // aggregate columns appended per retired epoch, result meta + joined
  // events at the end.
  std::optional<store::Writer> writer;
  std::optional<store::AggregateColumnsAppender> daily_columns;
  std::optional<store::AggregateColumnsAppender> window_columns;
  std::optional<store::NsSeenAppender> ns_seen_columns;
  if (!options.store_path.empty()) {
    writer.emplace(options.store_path);
    write_provenance_meta(*writer, config, options.threads);
    daily_columns.emplace("daily");
    window_columns.emplace("window");
    ns_seen_columns.emplace();
  }

  // Telescope: observe backscatter, infer the feed, stitch events — but
  // retire each ingest shard's records the moment they are folded into the
  // incremental stitcher (and the store's feed columns). The ordered shard
  // reduction feeds the sink in records_ order, and RSDoSFeed::events()
  // runs the same EventStitcher over the same multiset, so events, columns
  // and counts are bit-identical to the materialized telescope block while
  // peak memory stays bounded by the parallel region itself.
  {
    obs::ScopedSpan span(tracer, "telescope.infer");
    result.feed = telescope::RSDoSFeed(config.inference, config.backscatter);
    telescope::EventStitcher stitcher(config.inference);
    std::optional<store::FeedColumnsAppender> feed_columns;
    if (writer) feed_columns.emplace();
    result.feed_records = result.feed.ingest_stream(
        result.workload.schedule, result.darknet, config.feed_seed,
        [&](std::vector<telescope::RSDoSRecord>&& records) {
          for (const telescope::RSDoSRecord& rec : records) {
            if (feed_columns) feed_columns->append(rec);
            stitcher.add(rec);
            if (options.retain_feed) result.feed.add_record(rec);
          }
        });
    if (feed_columns) feed_columns->flush_to(*writer);
    result.events = stitcher.finish();
    span.set_items(result.events.size());
  }
  const World& world = *result.world;

  const SweepPlan plan =
      derive_sweep_plan(world, result.events, tracer, observer);
  const PlanRetention retention{plan.daily_keys, plan.window_keys,
                                plan.ns_seen_keys};
  std::vector<netsim::DayIndex> plan_days;
  plan_days.reserve(plan.days.size());
  for (const auto& [day, domains] : plan.days) plan_days.push_back(day);

  // Join readiness: an event's store reads — daily and ns_seen at
  // first_day-1, ns_seen at first_day, windows across the attack — are all
  // for days <= its last attacked day, and day-d sweeps only write day-d
  // state. So once every plan day <= D is folded, every event with
  // last day <= D joins finally. ready_order lists events by (last day,
  // canonical index); min_first_read[i] is the earliest day any event from
  // position i on still reads (a suffix-min of first_day-1), which is the
  // retirement watermark once the cursor passes the joined prefix.
  constexpr netsim::DayIndex kNoPendingReads =
      std::numeric_limits<netsim::DayIndex>::max();
  std::vector<std::pair<netsim::DayIndex, std::uint32_t>> ready_order;
  ready_order.reserve(result.events.size());
  for (const auto& batch : telescope::group_events_by_day(result.events)) {
    for (const std::uint32_t idx : batch.event_indices) {
      ready_order.emplace_back(batch.day, idx);
    }
  }
  std::vector<netsim::DayIndex> min_first_read(ready_order.size() + 1,
                                               kNoPendingReads);
  for (std::size_t i = ready_order.size(); i-- > 0;) {
    const auto& ev = result.events[ready_order[i].second];
    min_first_read[i] =
        std::min(min_first_read[i + 1], ev.start_time().day() - 1);
  }

  // Per-event output slots, concatenated in canonical order at the end —
  // the same assembly the materialized run's ordered reduction performs.
  const core::ResilienceClassifier classifier(world.registry, world.census,
                                              world.routes, world.orgs);
  core::JoinPipeline pipeline(world.registry, result.store, classifier,
                              config.join);
  std::vector<std::vector<core::NssetAttackEvent>> slots(result.events.size());
  core::JoinStats stats;
  stats.total_events = result.events.size();
  core::JoinPipeline::BaselineCache baselines;
  std::size_t next_ready = 0;

  const auto join_ready_through = [&](netsim::DayIndex day) {
    while (next_ready < ready_order.size() &&
           ready_order[next_ready].first <= day) {
      const std::uint32_t idx = ready_order[next_ready].second;
      pipeline.join_event(result.events[idx], slots[idx], stats, &baselines);
      ++next_ready;
    }
  };

  // Retirement: evict (and, when persisting, append to the store columns)
  // every day strictly below min(watermark, d - window_days + 1). The
  // watermark alone guarantees no pending join loses data; window_days
  // only delays eviction, so any value >= 1 yields identical output.
  netsim::DayIndex last_threshold = std::numeric_limits<netsim::DayIndex>::min();
  std::size_t retired_days = 0;
  const auto retire_epochs = [&](netsim::DayIndex threshold) {
    if (threshold <= last_threshold) return;
    last_threshold = threshold;
    const auto retired = result.store.retire_days_below(threshold);
    if (writer) {
      for (const auto& [key, agg] : retired.daily) {
        daily_columns->append(key, agg);
      }
      for (const auto& [key, agg] : retired.window) {
        window_columns->append(key, agg);
      }
      for (const auto& [day, ip] : retired.ns_seen) {
        ns_seen_columns->append(day, ip);
      }
    }
    while (retired_days < plan_days.size() &&
           plan_days[retired_days] < threshold) {
      ++retired_days;
    }
    if (observer) {
      observer->pipeline.stream_retired_days.set(
          static_cast<double>(retired_days));
    }
  };

  // ---- Stage wiring. Three stages connected by bounded channels:
  //
  //   plan producer --SweepTask--> sweep stage --SweptDay--> fold/join
  //
  // The sweep stage is the only thread driving the worker pool (one
  // parallel region at a time); the fold/join consumer runs here on the
  // calling thread so the store, join state and writer stay single-
  // threaded. Every stage closes its output channel on all exits —
  // including unwinds — so a dying stage drains the others instead of
  // deadlocking them; Stage::join() then rethrows the original error.
  exec::Channel<SweepTask> task_channel(options.channel_capacity);
  exec::Channel<SweptDay> swept_channel(options.channel_capacity);

  exec::Stage plan_stage("stream.plan", [&](exec::StageContext& ctx) {
    try {
      obs::ScopedSpan span(tracer, "stream.plan");
      for (const auto& [day, domains] : plan.days) {
        SweepTask task;
        task.day = day;
        task.domains = domains.sorted_keys();
        if (!task_channel.push(std::move(task))) break;  // consumer died
        ctx.tick();
        if (observer) {
          observer->pipeline.stream_plan_queue_depth.set(
              static_cast<double>(task_channel.depth()));
        }
      }
    } catch (...) {
      task_channel.close();
      throw;
    }
    task_channel.close();
  });

  openintel::SweeperParams sp;
  sp.resolver = config.resolver;
  sp.model = config.model;
  sp.seed = config.sweep_seed;
  const openintel::Sweeper sweeper(world.registry, result.workload.schedule,
                                   sp);
  exec::Stage sweep_stage("stream.sweep", [&](exec::StageContext& ctx) {
    try {
      obs::ScopedSpan span(tracer, "stream.sweep");
      std::uint64_t swept = 0;
      while (auto task = task_channel.pop()) {
        obs::ScopedSpan day_span(tracer, "sweep.day");
        day_span.arg("day", static_cast<std::int64_t>(task->day));
        day_span.set_items(task->domains.size());
        SweptDay out;
        out.day = task->day;
        // Parallel across domains within the day; the batch sink runs on
        // this thread in shard (= domain) order, so replaying the batches
        // in order downstream folds the store bit-identically to the
        // materialized driver's in-place add_batch calls.
        sweeper.sweep_domains_batched(
            task->day, task->domains, exec::global_pool(),
            [&out](std::span<const openintel::Measurement> batch) {
              out.batches.emplace_back(batch.begin(), batch.end());
            });
        for (const auto& batch : out.batches) swept += batch.size();
        if (!swept_channel.push(std::move(out))) break;  // consumer died
        ctx.tick();
        // Queue depths refresh at the stage boundary too, so the sampler
        // sees time-resolved depth even while the fold consumer is busy.
        if (observer) {
          observer->pipeline.stream_plan_queue_depth.set(
              static_cast<double>(task_channel.depth()));
          observer->pipeline.stream_sweep_queue_depth.set(
              static_cast<double>(swept_channel.depth()));
        }
      }
      span.set_items(swept);
    } catch (...) {
      task_channel.close();  // unblock the producer's push
      swept_channel.close();
      throw;
    }
    swept_channel.close();
  });

  // Progress sources for the stall watchdog and the `progress.*` telemetry
  // series: both stages, both channels (with queue-depth detail), the fold
  // consumer, and the shared worker pool. Registered only when an observer
  // is installed; all referenced state outlives these scoped handles.
  obs::ProgressRegistry* progress_registry =
      observer ? &observer->progress_sources() : nullptr;
  std::atomic<std::uint64_t> fold_batches{0};
  const obs::ScopedProgressSource plan_source(
      progress_registry, "stream.plan",
      [context = plan_stage.context()] { return context->progress(); });
  const obs::ScopedProgressSource sweep_source(
      progress_registry, "stream.sweep",
      [context = sweep_stage.context()] { return context->progress(); });
  const obs::ScopedProgressSource task_channel_source(
      progress_registry, "channel.tasks",
      [&task_channel] { return task_channel.progress(); },
      [&task_channel] {
        return "depth " + std::to_string(task_channel.depth()) + "/" +
               std::to_string(task_channel.capacity());
      });
  const obs::ScopedProgressSource swept_channel_source(
      progress_registry, "channel.swept",
      [&swept_channel] { return swept_channel.progress(); },
      [&swept_channel] {
        return "depth " + std::to_string(swept_channel.depth()) + "/" +
               std::to_string(swept_channel.capacity());
      });
  const obs::ScopedProgressSource fold_source(
      progress_registry, "stream.fold",
      [&fold_batches] { return fold_batches.load(std::memory_order_relaxed); });
  const obs::ScopedProgressSource pool_source(
      progress_registry, "exec.pool",
      [] { return exec::global_pool().progress(); });

  // ---- Fold/join consumer (this thread).
  const std::uint64_t days_total = plan_days.size();
  std::uint64_t days_done = 0;
  try {
    obs::ScopedSpan fold_span(tracer, "stream.fold");
    // Events whose last day precedes the first plan day read nothing the
    // sweep will ever write; join them against the empty store up front.
    join_ready_through((plan_days.empty() ? kNoPendingReads
                                          : plan_days.front()) -
                       1);
    while (auto day = swept_channel.pop()) {
      for (const auto& batch : day->batches) {
        result.store.add_batch(
            std::span<const openintel::Measurement>(batch), retention);
        result.swept_measurements += batch.size();
        fold_batches.fetch_add(1, std::memory_order_relaxed);
      }
      ++days_done;
      const netsim::DayIndex next_plan_day =
          days_done < plan_days.size() ? plan_days[days_done]
                                       : kNoPendingReads;
      join_ready_through(next_plan_day - 1);

      const netsim::DayIndex watermark = min_first_read[next_ready];
      retire_epochs(
          std::min(watermark, day->day - options.window_days + 1));

      if (observer) {
        observer->pipeline.run_days_swept.set(static_cast<double>(days_done));
        observer->pipeline.stream_plan_queue_depth.set(
            static_cast<double>(task_channel.depth()));
        observer->pipeline.stream_sweep_queue_depth.set(
            static_cast<double>(swept_channel.depth()));
        observer->pipeline.stream_watermark_day.set(static_cast<double>(
            watermark == kNoPendingReads ? day->day : watermark));
        obs::ProgressEvent progress;
        progress.stage = "sweep";
        progress.day = day->day;
        progress.days_done = days_done;
        progress.days_total = days_total;
        progress.measurements = result.swept_measurements;
        progress.events = result.events.size();
        const double elapsed_s =
            static_cast<double>(total.elapsed_ns()) / 1e9;
        progress.sweep_rate_per_s =
            elapsed_s > 0.0
                ? static_cast<double>(result.swept_measurements) / elapsed_s
                : 0.0;
        observer->emit_progress(progress, days_done == days_total);
      }
    }
    fold_span.set_items(result.swept_measurements);
  } catch (...) {
    // Unblock both stages before unwinding (the Stage destructors join).
    task_channel.close();
    swept_channel.close();
    throw;
  }
  plan_stage.join();   // rethrows a producer failure
  sweep_stage.join();  // rethrows a sweep failure
  if (observer) {
    observer->pipeline.run_store_measurements.set(
        static_cast<double>(result.swept_measurements));
  }

  // Final drain: every plan day is folded, so everything left is ready,
  // and afterwards nothing pins any epoch — retire the whole remnant
  // (sweeps only write plan days, so last plan day + 1 clears the store).
  join_ready_through(kNoPendingReads - 1);
  if (!plan_days.empty()) retire_epochs(plan_days.back() + 1);

  // Assemble per-event slots in canonical order — byte-for-byte the
  // ordered reduction of the materialized join — then run the shared
  // merge/stats tail.
  {
    obs::ScopedSpan span(tracer, "join");
    std::size_t total_out = 0;
    for (const auto& slot : slots) total_out += slot.size();
    std::vector<core::NssetAttackEvent> assembled;
    assembled.reserve(total_out);
    for (auto& slot : slots) {
      for (auto& ev : slot) assembled.push_back(std::move(ev));
    }
    result.joined = pipeline.finalize(std::move(assembled), stats);
    result.join_stats = pipeline.stats();
    span.set_items(result.joined.size());
  }
  if (observer) {
    obs::ProgressEvent progress;
    progress.stage = "join";
    progress.days_done = days_total;
    progress.days_total = days_total;
    progress.measurements = result.swept_measurements;
    progress.events = result.events.size();
    progress.joined = result.joined.size();
    observer->emit_progress(progress, /*force=*/true);
  }

  if (writer) {
    obs::ScopedSpan span(tracer, "store.write");
    daily_columns->flush_to(*writer);
    window_columns->flush_to(*writer);
    ns_seen_columns->flush_to(*writer);
    store::write_joined_events(*writer, result.joined);
    write_result_meta(*writer, result.workload.schedule.size(),
                      result.feed_records, result.events.size(),
                      result.joined.size(), result.swept_measurements,
                      result.join_stats);
    writer->finish();
    result.store_bytes = writer->bytes_written();
    span.set_items(writer->column_count());
    if (observer) {
      observer->pipeline.store_bytes_written.set(
          static_cast<double>(result.store_bytes));
    }
  }
  return result;
}

telescope::InferenceParams stored_inference(const store::Reader& reader) {
  telescope::InferenceParams inf;
  inf.min_packets_per_window = static_cast<std::uint32_t>(
      meta_u64(reader, "inference.min_packets_per_window"));
  inf.min_distinct_slash16 = static_cast<std::uint32_t>(
      meta_u64(reader, "inference.min_distinct_slash16"));
  inf.min_ppm = meta_f64(reader, "inference.min_ppm");
  inf.max_gap_windows =
      static_cast<std::uint32_t>(meta_u64(reader, "inference.max_gap_windows"));
  return inf;
}

void check_stored_count(const store::Reader& reader, const std::string& what,
                        const std::string& key, std::uint64_t decoded) {
  check_count(reader, what, meta_u64(reader, key), decoded);
}

StoredRun load_run(const std::string& path, bool use_mmap) {
  obs::Observer* observer = obs::Observer::installed();
  obs::ScopedSpan span(observer ? &observer->tracer() : nullptr, "store.read");
  const auto load_start = std::chrono::steady_clock::now();

  const store::Reader reader(
      path, use_mmap ? store::ReadMode::Mapped : store::ReadMode::Buffered);

  StoredRun run;
  LongitudinalConfig& cfg = run.config;
  cfg.workload.model = cfg.model;

  WorldParams& w = cfg.world;
  w.seed = meta_u64(reader, "world.seed");
  w.provider_count =
      static_cast<std::uint32_t>(meta_u64(reader, "world.provider_count"));
  w.domain_count =
      static_cast<std::uint32_t>(meta_u64(reader, "world.domain_count"));
  w.size_exponent = meta_f64(reader, "world.size_exponent");
  w.anycast_recall = meta_f64(reader, "world.anycast_recall");
  w.open_resolver_misconfigs = static_cast<std::uint32_t>(
      meta_u64(reader, "world.open_resolver_misconfigs"));
  w.single_ns_share = meta_f64(reader, "world.single_ns_share");
  w.lame_ns_share = meta_f64(reader, "world.lame_ns_share");
  w.capacity_base_pps = meta_f64(reader, "world.capacity_base_pps");
  w.capacity_exponent = meta_f64(reader, "world.capacity_exponent");
  w.legit_pps_per_domain = meta_f64(reader, "world.legit_pps_per_domain");
  w.legit_pps_floor = meta_f64(reader, "world.legit_pps_floor");

  LongitudinalParams& wl = cfg.workload;
  wl.seed = meta_u64(reader, "workload.seed");
  wl.scale = meta_f64(reader, "workload.scale");
  wl.multivector_prob = meta_f64(reader, "workload.multivector_prob");
  wl.victim_reuse_prob = meta_f64(reader, "workload.victim_reuse_prob");
  wl.dns_port_intensity_boost =
      meta_f64(reader, "workload.dns_port_intensity_boost");
  wl.scripted_cases = meta_u64(reader, "workload.scripted_cases") != 0;

  cfg.inference = stored_inference(reader);

  core::JoinParams& jp = cfg.join;
  jp.min_measured_domains = static_cast<std::uint32_t>(
      meta_u64(reader, "join.min_measured_domains"));
  jp.match_slash24 = meta_u64(reader, "join.match_slash24") != 0;
  jp.merge_concurrent = meta_u64(reader, "join.merge_concurrent") != 0;

  cfg.sweep_seed = meta_u64(reader, "run.sweep_seed");
  cfg.feed_seed = meta_u64(reader, "run.feed_seed");
  run.threads = static_cast<unsigned>(meta_u64(reader, "run.threads"));

  run.attacks = meta_u64(reader, "result.attacks");
  run.swept_measurements = meta_u64(reader, "result.swept_measurements");

  core::JoinStats& js = run.join_stats;
  js.total_events = meta_u64(reader, "stats.total_events");
  js.open_resolver_filtered = meta_u64(reader, "stats.open_resolver_filtered");
  js.non_dns = meta_u64(reader, "stats.non_dns");
  js.not_seen_day_before = meta_u64(reader, "stats.not_seen_day_before");
  js.below_measurement_floor =
      meta_u64(reader, "stats.below_measurement_floor");
  js.no_baseline = meta_u64(reader, "stats.no_baseline");
  js.joined = meta_u64(reader, "stats.joined");
  js.dns_events = meta_u64(reader, "stats.dns_events");

  // Every block checksum is verified up front so corruption fails loudly
  // before any analysis consumes decoded data. Verification is tracked
  // per block, so the decodes below never re-hash a block.
  reader.validate_all();

  run.feed = telescope::RSDoSFeed(cfg.inference, cfg.backscatter);
  run.feed.set_records(store::read_feed_records(reader));
  run.feed_records = run.feed.records().size();
  check_stored_count(reader, "feed record", "result.feed_records",
                     run.feed_records);

  // Stitched events are not stored: they are a deterministic function of
  // the records + inference params, so re-deriving them is both cheaper
  // and a consistency check against the stored count.
  run.events = run.feed.events();
  check_stored_count(reader, "stitched event", "result.events",
                     run.events.size());

  store::read_measurements(reader, run.store);
  run.store.set_total_measurements(run.swept_measurements);

  run.joined = store::read_joined_events(reader);
  check_stored_count(reader, "joined event", "result.joined",
                     run.joined.size());

  span.set_items(reader.columns().size());
  if (observer) {
    observer->pipeline.store_bytes_read.set(
        static_cast<double>(reader.file_size()));
    const double load_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - load_start)
            .count());
    if (load_ns > 0.0)
      observer->pipeline.store_read_MBps.set(
          static_cast<double>(reader.file_size()) * 1e3 / load_ns);
  }
  return run;
}

RejoinResult rejoin_from_store(const StoredRun& run) {
  obs::Observer* observer = obs::Observer::installed();
  obs::ScopedSpan span(observer ? &observer->tracer() : nullptr,
                       "store.rejoin");

  // The world is a pure function of its params, so the provenance meta is
  // enough to rebuild the registry/census/routes the join stage consults.
  const std::unique_ptr<World> world = build_world(run.config.world);
  const core::ResilienceClassifier classifier(world->registry, world->census,
                                              world->routes, world->orgs);
  core::JoinPipeline pipeline(world->registry, run.store, classifier,
                              run.config.join);
  RejoinResult result;
  result.joined = pipeline.run(run.events);
  result.stats = pipeline.stats();
  span.set_items(result.joined.size());
  return result;
}

bool rejoin_matches_store(const std::string& path, bool use_mmap,
                          const StoredRun& run, const RejoinResult& rejoin) {
  const store::Reader reader(
      path, use_mmap ? store::ReadMode::Mapped : store::ReadMode::Buffered);
  store::ColumnArena arena;
  const core::EventFrame frame = store::read_event_frame(reader, arena);
  return core::frame_equals_events(frame, rejoin.joined) &&
         rejoin.stats == run.join_stats;
}

StoreAnalysis analyze_store(const std::string& path, bool use_mmap) {
  obs::Observer* observer = obs::Observer::installed();
  obs::ScopedSpan span(observer ? &observer->tracer() : nullptr, "store.scan");

  const store::Reader reader(
      path, use_mmap ? store::ReadMode::Mapped : store::ReadMode::Buffered);

  StoreAnalysis a;
  a.world_seed = meta_u64(reader, "world.seed");
  a.domain_count =
      static_cast<std::uint32_t>(meta_u64(reader, "world.domain_count"));
  a.provider_count =
      static_cast<std::uint32_t>(meta_u64(reader, "world.provider_count"));
  a.workload_seed = meta_u64(reader, "workload.seed");
  a.workload_scale = meta_f64(reader, "workload.scale");
  a.sweep_seed = meta_u64(reader, "run.sweep_seed");
  a.feed_seed = meta_u64(reader, "run.feed_seed");
  a.threads = static_cast<unsigned>(meta_u64(reader, "run.threads"));
  a.attacks = meta_u64(reader, "result.attacks");
  a.feed_records = meta_u64(reader, "result.feed_records");
  a.events = meta_u64(reader, "result.events");
  a.joined = meta_u64(reader, "result.joined");
  a.swept_measurements = meta_u64(reader, "result.swept_measurements");
  a.file_bytes = reader.file_size();
  a.mapped = reader.mapped();

  check_count(reader, "joined event (footer)", a.joined,
              reader.dataset_rows("events"));
  check_count(reader, "feed record (footer)", a.feed_records,
              reader.dataset_rows("feed"));

  // The timed region is the data-plane read: every block of every
  // dataset decoded (or mapped through) exactly once, lazy CRC included.
  const auto scan_start = std::chrono::steady_clock::now();
  store::ColumnArena arena;
  store::scan_all(reader, arena);
  const core::EventFrame frame = store::read_event_frame(reader, arena);
  const auto scan_end = std::chrono::steady_clock::now();
  const double scan_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(scan_end -
                                                           scan_start)
          .count());
  if (scan_ns > 0.0)
    a.read_MBps = static_cast<double>(a.file_bytes) * 1e3 / scan_ns;

  a.impact = core::impact_summary_columnar(frame);
  a.failures = core::failure_summary_columnar(frame);
  a.duration_series = core::duration_impact_series_columnar(frame);
  a.by_anycast = core::impact_by_anycast_columnar(frame);
  a.monthly = core::monthly_joined_summary_columnar(frame);

  span.set_items(reader.columns().size());
  if (observer) {
    observer->pipeline.store_bytes_read.set(static_cast<double>(a.file_bytes));
    observer->pipeline.store_read_MBps.set(a.read_MBps);
  }
  return a;
}

}  // namespace ddos::scenario
