#include "scenario/driver.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <limits>
#include <malloc.h>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "exec/channel.h"
#include "exec/pool.h"
#include "exec/stage.h"
#include "obs/obs.h"
#include "scenario/plan.h"
#include "store/dataset.h"
#include "store/merge.h"
#include "store/reader.h"
#include "store/scan.h"
#include "store/writer.h"

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

// ---- DRS persistence (generate/analyze stage split).

namespace {

// The generating provenance in footer order: calls visit(key, field) for
// each field the footer records — the config fields the CLI can set, the
// writing tool and run.threads. publish_store writes it, stored_provenance
// reads it back, and merge_stores requires it equal across shards.
template <typename Config, typename Threads, typename Visit>
void for_each_provenance_key(Config& cfg, Threads& threads, Visit&& visit) {
  static constexpr std::string_view kTool = "ddosrepro";
  visit("format.tool", kTool);
  auto& w = cfg.world;
  visit("world.seed", w.seed);
  visit("world.provider_count", w.provider_count);
  visit("world.domain_count", w.domain_count);
  visit("world.size_exponent", w.size_exponent);
  visit("world.anycast_recall", w.anycast_recall);
  visit("world.open_resolver_misconfigs", w.open_resolver_misconfigs);
  visit("world.single_ns_share", w.single_ns_share);
  visit("world.lame_ns_share", w.lame_ns_share);
  visit("world.capacity_base_pps", w.capacity_base_pps);
  visit("world.capacity_exponent", w.capacity_exponent);
  visit("world.legit_pps_per_domain", w.legit_pps_per_domain);
  visit("world.legit_pps_floor", w.legit_pps_floor);
  auto& wl = cfg.workload;
  visit("workload.seed", wl.seed);
  visit("workload.scale", wl.scale);
  visit("workload.multivector_prob", wl.multivector_prob);
  visit("workload.victim_reuse_prob", wl.victim_reuse_prob);
  visit("workload.dns_port_intensity_boost", wl.dns_port_intensity_boost);
  visit("workload.scripted_cases", wl.scripted_cases);
  auto& inf = cfg.inference;
  visit("inference.min_packets_per_window", inf.min_packets_per_window);
  visit("inference.min_distinct_slash16", inf.min_distinct_slash16);
  visit("inference.min_ppm", inf.min_ppm);
  visit("inference.max_gap_windows", inf.max_gap_windows);
  auto& jp = cfg.join;
  visit("join.min_measured_domains", jp.min_measured_domains);
  visit("join.match_slash24", jp.match_slash24);
  visit(store::kMergeConcurrentKey, jp.merge_concurrent);
  visit("run.sweep_seed", cfg.sweep_seed);
  visit("run.feed_seed", cfg.feed_seed);
  visit("run.threads", threads);
}

// Footer text of one provenance field: bools as 1/0, integers in decimal,
// doubles as %.17g, which round-trips every finite double exactly — the
// provenance must restore configs bit-for-bit.
template <typename T>
std::string meta_text(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "1" : "0";
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else {
    return std::string(value);
  }
}

// The inverse of meta_text; the writing tool (a constant) is not read.
// Integers parse exactly in their field's own type, signed ones signed,
// so a value outside the field's range is refused, never truncated.
template <typename T>
void read_meta(const store::Reader& reader, std::string_view key, T& field) {
  if constexpr (std::is_floating_point_v<T>) {
    field = reader.meta_f64(key);
  } else if constexpr (std::is_integral_v<T>) {
    const std::string text = reader.meta_value(key);
    const char* end = text.data() + text.size();
    using Parsed = std::conditional_t<std::is_same_v<T, bool>, unsigned, T>;
    Parsed value{};
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end ||
        (std::is_same_v<T, bool> && value > 1)) {
      throw store::StoreError(reader.path() + ": meta key '" +
                              std::string(key) + "' holds '" + text +
                              "', not a value of its field's type");
    }
    field = static_cast<T>(value);
  }
}

// A store's provenance from its footer; a missing or malformed key throws.
Provenance stored_provenance(const store::Reader& reader) {
  Provenance p;
  for_each_provenance_key(p.config, p.threads,
                          [&](std::string_view key, auto& field) {
                            read_meta(reader, key, field);
                          });
  return p;
}

// The aggregate datasets of every store this driver writes, in block
// order after "feed": save_run passes the store's sorted tables, the
// executor the rows it kept as each epoch retired.
void write_aggregates(store::Writer& writer,
                      const openintel::MeasurementStore::RetiredState& rows) {
  store::write_dataset<store::AggregateColumns>(writer, "daily", rows.daily);
  store::write_dataset<store::AggregateColumns>(writer, "window", rows.window);
  store::write_dataset<store::NsSeenColumns>(writer, "ns_seen", rows.ns_seen);
}

// The closing sequence of every store this driver writes — save_run's and
// the executor's — so the two can never emit different key sets or orders
// (the footer serialises meta in insertion order, and CI compares the
// files byte for byte): the owner's row slice of the victims, then the
// joined events, the last dataset; the generating provenance; the result
// counts; then the publish.
std::uint64_t publish_store(store::Writer& writer,
                            const LongitudinalConfig& config, unsigned threads,
                            const LongitudinalResult& result,
                            const ShardSpec& owner, obs::ScopedSpan& span) {
  const std::vector<telescope::VictimAttacks> victims =
      telescope::count_attacks(result.events);
  const auto [lo, hi] = shard_slice(victims.size(), owner);
  store::write_dataset<store::VictimColumns>(
      writer, "victims",
      std::span(victims).subspan(lo, static_cast<std::size_t>(hi - lo)));
  store::write_dataset<store::EventColumns>(writer, "events", result.joined);
  for_each_provenance_key(config, threads,
                          [&](std::string_view key, const auto& field) {
                            writer.add_meta(key, meta_text(field));
                          });
  store::write_counts(writer,
                      {.attacks = result.workload.schedule.size(),
                       .feed_records = result.feed_records,
                       .events = result.events.size(),
                       .joined = result.joined.size(),
                       .swept_measurements = result.swept_measurements,
                       .stats = result.join_stats});

  writer.finish();
  span.set_items(writer.column_count());
  if (obs::Observer* observer = obs::Observer::installed()) {
    observer->pipeline.store_bytes_written.set(
        static_cast<double>(writer.bytes_written()));
  }
  return writer.bytes_written();
}

}  // namespace

std::uint64_t save_run(const std::string& path,
                       const LongitudinalConfig& config, unsigned threads,
                       const LongitudinalResult& result) {
  obs::ScopedSpan span(obs::installed_tracer(), "store.write");
  store::Writer writer(path);
  store::write_dataset<store::FeedColumns>(writer, "feed",
                                           result.feed.records());
  write_aggregates(writer, {.daily = result.store.sorted_daily(),
                            .window = result.store.sorted_window(),
                            .ns_seen = result.store.sorted_ns_seen()});
  return publish_store(writer, config, threads, result, ShardSpec{}, span);
}

// ---- the run executor: one streaming day-epoch pipeline behind all three
// drivers.

namespace {

/// One sweep-plan day queued to the sweep stage.
struct SweepTask {
  netsim::DayIndex day = 0;
  std::vector<dns::DomainId> domains;  // sorted, from the plan's day set
};

/// One swept day's measurements, preserved as the sink-call batches in
/// sink-call order so the fold stage replays the exact add_batch sequence
/// of an in-place fold.
struct SweptDay {
  netsim::DayIndex day = 0;
  std::vector<std::vector<openintel::Measurement>> batches;
};

/// Bounded capacity of each inter-stage channel; output never depends on it.
constexpr std::size_t kChannelCapacity = 4;

/// One executor configuration: the three public drivers differ only here.
struct RunSpec {
  const char* name = "";  // root span
  /// Null: a whole run, joined and merged. Else this shard's days (plus
  /// the halo its events read), events and ingest regions, joined
  /// pre-merge for the shard manifest.
  const ShardSpec* shard = nullptr;
  /// Keep every folded day in result.store (what save_run writes) instead
  /// of retiring days at the join watermark.
  bool retain_store = false;
  bool retain_feed = false;  // keep the record vector in result.feed
  std::string store_path;    // non-empty: write a DRS store here
  unsigned threads = 0;      // run.threads provenance meta
};

LongitudinalResult execute(const LongitudinalConfig& config,
                           const RunSpec& spec) {
  obs::Observer* observer = obs::Observer::installed();
  obs::Tracer* tracer = observer ? &observer->tracer() : nullptr;
  obs::ScopedSpan total(tracer, spec.name);
  const ShardSpec owner = spec.shard ? *spec.shard : ShardSpec{};
  if (spec.shard) {
    total.arg("shard", static_cast<std::int64_t>(owner.index));
    total.arg("count", static_cast<std::int64_t>(owner.count));
  }

  // The store opens first, so an unwritable path fails before any work:
  // the feed blocks go out up front (save_run's block order starts with
  // "feed"), the aggregate rows are kept as each epoch retires and
  // written at the end by write_aggregates, and publish_store closes it.
  std::optional<store::Writer> writer;
  openintel::MeasurementStore::RetiredState kept;  // retired rows to store
  if (!spec.store_path.empty()) writer.emplace(spec.store_path);

  LongitudinalResult result;
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
  const World& world = *result.world;

  // Telescope: observe backscatter, infer the feed, and stitch events one
  // ingest region at a time, as ingest_stream hands each region's records
  // over in records() order. RSDoSFeed::events() runs the same
  // EventStitcher over the same records, so the events match it bit for
  // bit; the stitch ranges are cut at the schedule's victims, known before
  // any record is. Unless kept, each region's records are released once
  // folded, so peak memory stays bounded by the parallel region itself.
  // Only the owner's regions (all for a whole run) are counted and stored,
  // so the shards' feeds concatenate to the whole feed.
  {
    obs::ScopedSpan span(tracer, "telescope.infer");
    result.feed = telescope::RSDoSFeed(config.inference, config.backscatter);
    const auto& attacks = result.workload.schedule.attacks();
    telescope::EventStitcher stitcher(
        config.inference,
        telescope::sample_victims(attacks.size(), [&](std::size_t i) {
          return attacks[i].target.value();
        }));
    if (spec.retain_feed) result.feed.reserve_for(result.workload.schedule);
    std::optional<store::DatasetAppender<store::FeedColumns>> feed_columns;
    if (writer) feed_columns.emplace("feed");
    const auto [region_lo, region_hi] = shard_slice(
        telescope::RSDoSFeed::region_count(result.workload.schedule), owner);
    std::uint64_t region = 0;
    result.feed.ingest_stream(
        result.workload.schedule, result.darknet, config.feed_seed,
        [&](telescope::RecordBatch batch) {
          const bool owned = region >= region_lo && region < region_hi;
          ++region;
          const std::uint64_t records_before = result.feed_records;
          for (const std::span<const telescope::RSDoSRecord> part : batch) {
            if (spec.retain_feed) result.feed.add_records(part);
            if (owned) result.feed_records += part.size();
          }
          if (owned && feed_columns) {
            // The region's columns, encoded in pieces on the pool.
            obs::ScopedSpan append_span(tracer, "store.feed.append");
            append_span.set_items(result.feed_records - records_before);
            feed_columns->append(batch);
          }
          stitcher.add(batch);
        });
    if (feed_columns) {
      feed_columns->flush_to(*writer);
      feed_columns.reset();  // frees the piece copies; the trim returns
      malloc_trim(0);        // their heap, which the sweep reuses in part
    }
    result.events = stitcher.finish();
    span.set_items(result.events.size());
  }

  const SweepPlan plan =
      derive_sweep_plan(world, result.events, tracer, observer);
  const PlanRetention retention{plan.daily_keys, plan.window_keys,
                                plan.ns_seen_keys};

  // The owned day range: one shard of the plan's partition (every day for
  // ShardSpec{0, 1}). Every shard derives the identical plan from the
  // identical event list (world, workload, telescope and sweep are pure
  // functions of their seeds), so a day swept here is bit-identical to the
  // same day of the whole-world run, and the shards agree on the cuts
  // without coordinating. An event belongs to the range of its last day.
  const ShardBounds bounds = shard_bounds(plan, owner);
  constexpr netsim::DayIndex kNoPendingReads =
      std::numeric_limits<netsim::DayIndex>::max();

  // Join readiness: an event's store reads — daily and ns_seen at
  // first_day-1, ns_seen at first_day, windows across the attack — are all
  // for days <= its last attacked day, and day-d sweeps only write day-d
  // state. So once every plan day <= D is folded, every event with last
  // day <= D joins finally. ready_order lists the owned events by (last
  // day, canonical index); min_first_read[i] is the earliest day any event
  // from position i on still reads (a suffix-min of first_day-1), which is
  // the retirement watermark once the cursor passes the joined prefix.
  std::vector<std::pair<netsim::DayIndex, std::uint32_t>> ready_order;
  for (std::uint32_t idx = 0; idx < result.events.size(); ++idx) {
    const netsim::DayIndex last_day = (result.events[idx].end_time() - 1).day();
    if (bounds.owns_day(last_day)) ready_order.emplace_back(last_day, idx);
  }
  // Pairs sort by (day, index): canonical order within a day, no stable
  // sort needed.
  std::sort(ready_order.begin(), ready_order.end());
  std::vector<netsim::DayIndex> min_first_read(ready_order.size() + 1,
                                               kNoPendingReads);
  for (std::size_t i = ready_order.size(); i-- > 0;) {
    const auto& ev = result.events[ready_order[i].second];
    min_first_read[i] =
        std::min(min_first_read[i + 1], ev.start_time().day() - 1);
  }

  // Swept days: the owned range plus the halo below it that the owned
  // events' previous-day reads reach. Halo days serve those joins only:
  // they are neither counted nor persisted here (the preceding shard owns
  // them).
  const auto plan_begin =
      plan.days.lower_bound(std::min(bounds.day_lo, min_first_read[0]));
  const auto plan_end = plan.days.lower_bound(bounds.day_hi);
  std::vector<netsim::DayIndex> plan_days;
  for (auto it = plan_begin; it != plan_end; ++it) {
    plan_days.push_back(it->first);
  }

  // Per-event output slots, concatenated in canonical order at the end —
  // the ordered reduction JoinPipeline::run performs.
  const core::ResilienceClassifier classifier(world.registry, world.census,
                                              world.routes, world.orgs);
  core::JoinPipeline pipeline(world.registry, result.store, classifier,
                              config.join);
  std::vector<std::vector<core::NssetAttackEvent>> slots(result.events.size());
  core::JoinStats stats;
  stats.total_events = ready_order.size();
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

  // Retirement evicts every day below `threshold` and, when persisting,
  // keeps its rows for the store; callers never pass a threshold above
  // the watermark, so no pending join loses data. Halo days are evicted
  // unpersisted.
  netsim::DayIndex last_threshold = std::numeric_limits<netsim::DayIndex>::min();
  const auto retire_epochs = [&](netsim::DayIndex threshold) {
    if (spec.retain_store || threshold <= last_threshold) return;
    if (last_threshold < bounds.day_lo) {
      result.store.retire_days_below(std::min(threshold, bounds.day_lo));
    }
    last_threshold = threshold;
    const auto retired = result.store.retire_days_below(threshold);
    if (writer) {
      std::ranges::copy(retired.daily, std::back_inserter(kept.daily));
      std::ranges::copy(retired.window, std::back_inserter(kept.window));
      std::ranges::copy(retired.ns_seen, std::back_inserter(kept.ns_seen));
    }
    if (observer) {
      observer->pipeline.stream_retired_days.set(static_cast<double>(
          std::lower_bound(plan_days.begin(), plan_days.end(), threshold) -
          plan_days.begin()));
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
  exec::Channel<SweepTask> task_channel(kChannelCapacity);
  exec::Channel<SweptDay> swept_channel(kChannelCapacity);

  exec::Stage plan_stage("stream.plan", [&](exec::StageContext& ctx) {
    try {
      obs::ScopedSpan span(tracer, "stream.plan");
      for (auto it = plan_begin; it != plan_end; ++it) {
        SweepTask task;
        task.day = it->first;
        task.domains = it->second.sorted_keys();
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
        // this thread in shard (= domain) order, and the store's grouped
        // fold preserves per-key measurement order, so replaying the
        // batches in order downstream yields the same state at any thread
        // count.
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
    while (auto day = swept_channel.pop()) {
      const bool owned_day = bounds.owns_day(day->day);
      for (const auto& batch : day->batches) {
        result.store.add_batch(
            std::span<const openintel::Measurement>(batch), retention);
        if (owned_day) result.swept_measurements += batch.size();
        fold_batches.fetch_add(1, std::memory_order_relaxed);
      }
      ++days_done;
      const netsim::DayIndex next_plan_day =
          days_done < plan_days.size() ? plan_days[days_done]
                                       : kNoPendingReads;
      join_ready_through(next_plan_day - 1);

      const netsim::DayIndex watermark = min_first_read[next_ready];
      retire_epochs(std::min(watermark, day->day));

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

  // Final drain: every swept day is folded, so everything left is ready,
  // and afterwards nothing pins any epoch — retire the whole remnant
  // (sweeps only write plan days, so last plan day + 1 clears the store).
  join_ready_through(kNoPendingReads - 1);
  if (!plan_days.empty()) retire_epochs(plan_days.back() + 1);

  // Assemble the per-event slots in canonical order. A whole run then
  // merges concurrent events; a shard defers that global sort to
  // store::merge_stores, which uses src_event to interleave the shards
  // back into exactly the single-process pre-merge vector.
  std::vector<std::uint64_t> src_event;
  {
    obs::ScopedSpan span(tracer, "join");
    std::size_t total_out = 0;
    for (const auto& slot : slots) total_out += slot.size();
    std::vector<core::NssetAttackEvent> assembled;
    assembled.reserve(total_out);
    for (std::size_t idx = 0; idx < slots.size(); ++idx) {
      for (auto& ev : slots[idx]) {
        assembled.push_back(std::move(ev));
        if (spec.shard) src_event.push_back(idx);
      }
    }
    if (spec.shard) {
      result.joined = std::move(assembled);
      result.join_stats = stats;
    } else {
      result.joined = pipeline.finalize(std::move(assembled), stats);
      result.join_stats = pipeline.stats();
    }
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
    write_aggregates(*writer, kept);
    if (spec.shard) {
      store::write_shard_manifest(*writer, owner.index, owner.count,
                                  src_event);
    }
    result.store_bytes =
        publish_store(*writer, config, spec.threads, result, owner, span);
  }
  return result;
}

}  // namespace

LongitudinalResult run_longitudinal(const LongitudinalConfig& config) {
  RunSpec spec;
  spec.name = "run_longitudinal";
  spec.retain_store = true;
  spec.retain_feed = true;
  return execute(config, spec);
}

LongitudinalResult run_longitudinal_streaming(const LongitudinalConfig& config,
                                              const StreamingOptions& options) {
  RunSpec spec;
  spec.name = "run_longitudinal_streaming";
  spec.retain_feed = options.retain_feed;
  spec.store_path = options.store_path;
  spec.threads = options.threads;
  return execute(config, spec);
}

ShardRunResult run_shard(const LongitudinalConfig& config,
                         const ShardSpec& spec, unsigned threads,
                         const std::string& store_path) {
  if (spec.count == 0 || spec.index >= spec.count) {
    throw std::invalid_argument(
        "run_shard: need shard index < count, count >= 1");
  }
  RunSpec run;
  run.name = "run_shard";
  run.shard = &spec;
  run.store_path = store_path;
  run.threads = threads;
  const ShardRunResult out = [&] {
    const LongitudinalResult r = execute(config, run);
    return ShardRunResult{.spec = spec,
                          .events_total = r.events.size(),
                          .owned_events = r.join_stats.total_events,
                          .feed_rows = r.feed_records,
                          .joined_rows = r.joined.size(),
                          .swept_measurements = r.swept_measurements,
                          .store_bytes = r.store_bytes};
  }();
  // Everything the shard built is freed by now, but glibc keeps 40-90 MiB
  // of it resident, more or less from run to run as fragmentation pins it.
  // Give it back, so a caller that runs the next shard or merges in this
  // process starts from the same heap every time.
  malloc_trim(0);
  return out;
}

CheckedStore::CheckedStore(const std::string& path, store::ReadMode mode)
    : reader(path, mode),
      provenance(stored_provenance(reader)),
      counts(store::read_counts(reader)) {
  // The O(footer) checks first, then every block; each CRC is recorded
  // per block, so the caller's decodes never re-hash one.
  store::check_count(path, "feed record", counts.feed_records,
                     reader.dataset_rows("feed"));
  store::check_count(path, "joined event", counts.joined,
                     reader.dataset_rows("events"));
  store::check_all(reader);
}

StoredRun load_run(const std::string& path, bool use_mmap) {
  obs::ScopedSpan span(obs::installed_tracer(), "store.read");
  const auto load_start = std::chrono::steady_clock::now();

  const CheckedStore checked(
      path, use_mmap ? store::ReadMode::Mapped : store::ReadMode::Buffered);
  const store::Reader& reader = checked.reader;

  StoredRun run;
  static_cast<Provenance&>(run) = checked.provenance;
  run.attacks = checked.counts.attacks;
  run.swept_measurements = checked.counts.swept_measurements;
  run.join_stats = checked.counts.stats;

  std::vector<telescope::RSDoSRecord> records;
  records.reserve(reader.dataset_rows("feed"));
  {
    // The feed columns are the largest decode: release them before the
    // stitch below allocates.
    store::ColumnArena feed_arena;
    store::read_dataset<store::FeedColumns>(
        reader, "feed", feed_arena, [&](const telescope::RSDoSRecord& record) {
          records.push_back(record);
        });
  }
  run.feed =
      telescope::RSDoSFeed(run.config.inference, run.config.backscatter);
  run.feed.set_records(std::move(records));
  run.feed_records = run.feed.records().size();

  // Stitched events are not stored: they are a deterministic function of
  // the records + inference params, so re-deriving them is both cheaper
  // and a consistency check against the stored count and victims.
  run.events = run.feed.events();
  store::check_count(path, "stitched event", checked.counts.events,
                     run.events.size());
  if (telescope::count_attacks(run.events) !=
      store::read_victims(reader, checked.counts.events)) {
    throw store::StoreError(path +
                            ": the victims dataset does not match the "
                            "per-victim counts of the feed's stitched events");
  }

  // Restore targets are sized from the row counts up front, so loads
  // probe into final-size tables instead of rehashing O(log n) times.
  store::ColumnArena arena;
  run.store.reserve_daily(reader.dataset_rows("daily"));
  store::read_dataset<store::AggregateColumns>(
      reader, "daily", arena, [&](const store::AggregateRow& row) {
        run.store.restore_daily(row.key, row.aggregate());
      });
  run.store.reserve_window(reader.dataset_rows("window"));
  store::read_dataset<store::AggregateColumns>(
      reader, "window", arena, [&](const store::AggregateRow& row) {
        run.store.restore_window(row.key, row.aggregate());
      });
  store::read_dataset<store::NsSeenColumns>(
      reader, "ns_seen", arena, [&](const store::NsSeenRow& seen) {
        run.store.restore_ns_seen(seen.first, seen.second);
      });
  run.store.set_total_measurements(run.swept_measurements);

  run.joined.reserve(reader.dataset_rows("events"));
  store::read_dataset<store::EventColumns>(
      reader, "events", arena, [&](core::NssetAttackEvent&& event) {
        run.joined.push_back(std::move(event));
      });

  span.set_items(reader.columns().size());
  store::record_store_read(reader.file_size(),
                           std::chrono::steady_clock::now() - load_start);
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

StoreAnalysis analyze_store(const std::string& path, bool use_mmap) {
  obs::ScopedSpan span(obs::installed_tracer(), "store.scan");

  // The timed region is the data-plane read: the checked open, the
  // victims check, then only the events dataset decoded — the one the
  // kernels read.
  const auto scan_start = std::chrono::steady_clock::now();
  const CheckedStore checked(
      path, use_mmap ? store::ReadMode::Mapped : store::ReadMode::Buffered);
  const store::Reader& reader = checked.reader;

  StoreAnalysis a;
  static_cast<Provenance&>(a) = checked.provenance;
  static_cast<store::RunCounts&>(a) = checked.counts;
  a.file_bytes = reader.file_size();
  a.mapped = reader.mapped();
  // The stored victims are checked as load_run and load_engine check
  // them (~100 KB), so every reader refuses the same victims dataset.
  store::read_victims(reader, checked.counts.events);

  store::ColumnArena arena;
  const core::EventFrame frame = store::read_event_frame(reader, arena);
  a.read_MBps = store::record_store_read(
      a.file_bytes, std::chrono::steady_clock::now() - scan_start);

  a.impact = core::impact_summary_columnar(frame);
  a.failures = core::failure_summary_columnar(frame);
  a.duration_series = core::duration_impact_series_columnar(frame);
  a.by_anycast = core::impact_by_anycast_columnar(frame);
  a.monthly = core::monthly_joined_summary_columnar(frame);

  span.set_items(reader.columns().size());
  return a;
}

}  // namespace ddos::scenario
