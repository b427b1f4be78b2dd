// Observer — the process-wide handle that pipeline stages report into.
//
// One Observer bundles a MetricsRegistry, a Tracer, the pre-registered
// pipeline metric set (direct atomic members, so hot paths never do a
// name lookup), and an optional progress callback for heartbeat lines.
//
// Instrumentation sites use the installed-observer pattern:
//
//   if (obs::Observer* o = obs::Observer::installed()) {
//     o->pipeline.resolver_queries.inc();
//   }
//   obs::ScopedSpan span(obs::installed_tracer(), "join.run");
//
// `installed()` is a single relaxed atomic load; with no observer
// installed everything collapses to a load+branch — the null sink that
// keeps bench_perf_pipeline within noise of an uninstrumented build.
// Install is not reference-counted: the caller owns the Observer and must
// uninstall (ScopedInstall does both) before destroying it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ddos::obs {

/// Registry of monotonic progress sources — the signal the stall watchdog
/// and the telemetry sampler poll. A source is a name plus a callable
/// returning a monotonically non-decreasing count (items pushed, days
/// folded, shards run); an optional detail callable renders a one-line
/// human hint ("depth 4/4") for diagnostic dumps. Registration is scoped:
/// the callable must stay valid until remove(), which ScopedProgressSource
/// guarantees by RAII. read() runs the callables under the registry lock,
/// so they must be cheap and lock-free-ish (atomic loads, channel depth).
class ProgressRegistry {
 public:
  using CountFn = std::function<std::uint64_t()>;
  using DetailFn = std::function<std::string()>;

  std::uint64_t add(std::string name, CountFn count, DetailFn detail = {});
  void remove(std::uint64_t id);

  struct Reading {
    std::string name;
    std::uint64_t count = 0;
    std::string detail;  // empty when the source has no detail fn
  };
  /// One reading per live source, in registration order.
  std::vector<Reading> read() const;

 private:
  struct Source {
    std::uint64_t id = 0;
    std::string name;
    CountFn count;
    DetailFn detail;
  };
  mutable std::mutex mu_;
  std::vector<Source> sources_;
  std::uint64_t next_id_ = 1;
};

/// RAII registration into the installed observer's ProgressRegistry; a
/// no-op when no observer is installed (registry == nullptr).
class ScopedProgressSource {
 public:
  ScopedProgressSource(ProgressRegistry* registry, std::string name,
                       ProgressRegistry::CountFn count,
                       ProgressRegistry::DetailFn detail = {})
      : registry_(registry),
        id_(registry ? registry->add(std::move(name), std::move(count),
                                     std::move(detail))
                     : 0) {}
  ~ScopedProgressSource() {
    if (registry_) registry_->remove(id_);
  }
  ScopedProgressSource(const ScopedProgressSource&) = delete;
  ScopedProgressSource& operator=(const ScopedProgressSource&) = delete;

 private:
  ProgressRegistry* registry_;
  std::uint64_t id_;
};

/// Metric names are dotted stage.event paths; the full catalogue is
/// documented in README.md §Observability.
struct PipelineMetrics {
  // dns/resolver.cpp — agnostic resolutions.
  Counter& resolver_queries;
  Counter& resolver_attempts;
  Counter& resolver_ok;
  Counter& resolver_servfail;
  Counter& resolver_timeout;
  // dns/server.cpp — per-nameserver query outcomes.
  Counter& server_queries;
  Counter& server_answered;
  Counter& server_servfail;
  Counter& server_dropped;      // blackholed/geofenced/queue-lost, no answer
  // openintel/sweeper.cpp — sweep measurements by outcome.
  Counter& sweep_measurements;
  Counter& sweep_ok;
  Counter& sweep_servfail;
  Counter& sweep_timeout;
  HistogramMetric& sweep_rtt_ms;       // log bins, 1ms .. 10^8 ms
  // telescope/feed.cpp — backscatter inference.
  Counter& feed_windows_observed;
  Counter& feed_records;
  // core/join.cpp — previous-day join dispositions.
  Counter& join_events_in;
  Counter& join_events_out;
  Counter& join_open_resolver_filtered;
  Counter& join_non_dns;
  Counter& join_not_seen_day_before;
  Counter& join_below_floor;
  Counter& join_no_baseline;
  // scenario/driver.cpp — longitudinal run shape.
  Gauge& run_days_swept;
  Gauge& run_domains_planned;
  Gauge& run_store_measurements;
  // scenario/driver.cpp — DRS dataset store I/O (generate/analyze split).
  Gauge& store_bytes_written;
  Gauge& store_bytes_read;
  Gauge& store_read_MBps;           // throughput of the latest store scan
  // store/reader.cpp — mapped-mode block accounting.
  Counter& store_blocks_mapped;     // blocks indexed by mmap-backed readers
  Counter& store_crc_lazy_checks;   // blocks CRC-verified lazily (once each)
  // store/merge.cpp — shard-store compaction (ddosrepro merge).
  Gauge& merge_shards;              // shard stores in the latest merge
  Counter& merge_rows;              // column values k-way appended
  Gauge& merge_bytes_read;          // summed shard file sizes
  Gauge& merge_bytes_written;       // merged file size
  Gauge& merge_MBps;                // merged bytes / merge wall time
  // scenario/driver.cpp — streaming day-epoch pipeline health.
  Gauge& stream_plan_queue_depth;   // SweepTasks waiting for the sweep stage
  Gauge& stream_sweep_queue_depth;  // swept days waiting for the fold/join
  Gauge& stream_retired_days;       // day-epochs evicted from the store
  Gauge& stream_watermark_day;      // earliest day a pending join still needs

  explicit PipelineMetrics(MetricsRegistry& registry);
};

/// Heartbeat payload emitted by the longitudinal driver once per simulated
/// day (and once after the join).
struct ProgressEvent {
  std::string stage;                 // "sweep" | "join" | ...
  std::int64_t day = -1;             // simulated DayIndex, -1 when n/a
  std::uint64_t days_done = 0;
  std::uint64_t days_total = 0;
  std::uint64_t measurements = 0;    // cumulative swept measurements
  std::uint64_t events = 0;          // telescope events in flight
  std::uint64_t joined = 0;          // joined NSSet-events (post-join)
  double sweep_rate_per_s = 0.0;     // measurements / wall-second so far
};

class Observer {
  // Declared ahead of `pipeline`: PipelineMetrics binds references into
  // metrics_, so the registry must be initialized first.
  MetricsRegistry metrics_;
  Tracer tracer_;

 public:
  Observer();

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  PipelineMetrics pipeline;  // references into metrics_

  /// Progress heartbeats. The callback runs on the emitting thread;
  /// `min_interval_ms` rate-limits per-day ticks (final/forced events
  /// always pass). 0 disables throttling — tests use that. Completion
  /// events (days_done == days_total > 0) bypass the throttle implicitly,
  /// so the 100% line is emitted even when a short run finishes between
  /// throttle ticks and the caller forgot to force.
  void set_progress(std::function<void(const ProgressEvent&)> callback,
                    std::uint64_t min_interval_ms = 500);
  bool progress_enabled() const { return static_cast<bool>(on_progress_); }
  void emit_progress(const ProgressEvent& event, bool force = false);

  /// Monotonic progress sources the stall watchdog polls (streaming
  /// stages, channels, the worker pool).
  ProgressRegistry& progress_sources() { return progress_sources_; }
  const ProgressRegistry& progress_sources() const {
    return progress_sources_;
  }

  // ---- global installation ------------------------------------------
  static Observer* installed();
  /// Replaces the installed observer (nullptr uninstalls); returns the
  /// previous one. Not synchronised against in-flight readers: install
  /// before starting instrumented work.
  static Observer* install(Observer* observer);

 private:
  std::function<void(const ProgressEvent&)> on_progress_;
  ProgressRegistry progress_sources_;
  std::uint64_t progress_min_interval_ms_ = 500;
  // Atomic so concurrent emitters (parallel sweep shards) throttle safely;
  // the CAS in emit_progress picks one winner per interval.
  std::atomic<std::uint64_t> progress_last_ns_{0};
};

/// Tracer of the installed observer, or nullptr — the argument ScopedSpan
/// wants at call sites.
inline Tracer* installed_tracer() {
  Observer* o = Observer::installed();
  return o ? &o->tracer() : nullptr;
}

/// RAII install/uninstall, restoring whatever was installed before.
class ScopedInstall {
 public:
  explicit ScopedInstall(Observer& observer)
      : previous_(Observer::install(&observer)) {}
  ~ScopedInstall() { Observer::install(previous_); }
  ScopedInstall(const ScopedInstall&) = delete;
  ScopedInstall& operator=(const ScopedInstall&) = delete;

 private:
  Observer* previous_;
};

}  // namespace ddos::obs
