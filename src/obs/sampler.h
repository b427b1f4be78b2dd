// TelemetrySampler — the background thread that turns the point-in-time
// metrics registry into time-resolved series.
//
// At a fixed cadence (default 250 ms) the sampler snapshots every
// registered Counter/Gauge/Histogram of an Observer, the observer's
// progress sources, and process stats read from /proc/self (VmRSS/VmHWM,
// utime/stime, open fd count), and appends the readings to a
// TimeSeriesSet of fixed-capacity rings:
//
//   * counters  -> `<name>` level series + `<name>.rate` per-second series
//                  (delta between consecutive samples / elapsed);
//   * gauges    -> `<name>` level series;
//   * histograms-> `<name>.count` level + `<name>.rate` per-second series
//                  (observation totals; bins stay in the final snapshot);
//   * progress  -> `progress.<source>` level series;
//   * process   -> proc.vm_rss_bytes, proc.vm_hwm_bytes, proc.cpu_pct,
//                  proc.utime_s, proc.stime_s, proc.fd_count.
//
// Each tick can also append one JSONL line ({"t_ms":..,"values":{...}})
// to a --telemetry-out stream, so a run's full time-resolved story
// survives the process (the in-memory rings keep only the newest
// `capacity` points per series).
//
// The sampler is overhead-audited: it records its own cumulative sampling
// wall time, and bench_perf_pipeline gates sampler_overhead_pct (< 1% of
// run wall at 250 ms cadence) in CI.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "obs/obs.h"
#include "obs/timeseries.h"

namespace ddos::obs {

/// Process stats from /proc/self; zeros on platforms without procfs.
struct ProcStats {
  std::uint64_t vm_rss_bytes = 0;
  std::uint64_t vm_hwm_bytes = 0;
  double utime_s = 0.0;   // user CPU, process lifetime
  double stime_s = 0.0;   // system CPU, process lifetime
  std::uint64_t fd_count = 0;
};
ProcStats read_proc_stats();

struct SamplerOptions {
  std::uint64_t interval_ms = 250;
  /// Ring capacity per series; memory bound = series x capacity x 16 B.
  std::size_t capacity_per_series = 4096;
  /// When set, stream one JSON object per sample here; the stream must
  /// outlive the sampler, and its owner checks the stream state.
  std::ostream* jsonl = nullptr;
  /// Include proc.* series (off only in deterministic unit tests).
  bool sample_process = true;
};

class TelemetrySampler {
 public:
  /// The observer must outlive the sampler. Construction takes no
  /// samples; call start().
  TelemetrySampler(Observer& observer, SamplerOptions options);
  /// Stops the thread; does NOT take a final sample (stop() does).
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  void start();
  /// Takes one final sample (so the end state is always captured, even
  /// for runs shorter than one interval), then joins the thread and
  /// flushes the JSONL stream. Idempotent.
  void stop();

  /// One synchronous sample on the calling thread — the unit-test and
  /// final-flush entry point; also safe while the thread runs (the series
  /// set serialises pushes).
  void sample_now();

  const TimeSeriesSet& series() const { return series_; }
  std::uint64_t samples_taken() const {
    return samples_.load(std::memory_order_relaxed);
  }
  /// Cumulative wall time spent inside sample bodies (overhead audit).
  std::uint64_t total_sample_ns() const {
    return sample_ns_.load(std::memory_order_relaxed);
  }
  const SamplerOptions& options() const { return options_; }

 private:
  void thread_main();

  Observer& observer_;
  SamplerOptions options_;
  TimeSeriesSet series_;
  // Previous counter levels for delta/rate columns, keyed like the
  // series; only touched from inside sample_now (serialised by mu_).
  std::map<std::string, double> prev_levels_;
  std::uint64_t prev_t_ns_ = 0;
  ProcStats prev_proc_;
  std::mutex mu_;  // serialises sample_now bodies + jsonl writes
  std::thread thread_;
  // stop() must interrupt the inter-sample sleep promptly, so the thread
  // waits on a condition variable that stop() notifies under wait_mu_.
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> sample_ns_{0};
  bool stopped_ = false;
};

}  // namespace ddos::obs
