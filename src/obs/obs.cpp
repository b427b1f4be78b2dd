#include "obs/obs.h"

#include <atomic>

namespace ddos::obs {

namespace {
std::atomic<Observer*> g_installed{nullptr};
}  // namespace

PipelineMetrics::PipelineMetrics(MetricsRegistry& r)
    : resolver_queries(r.counter("resolver.queries")),
      resolver_attempts(r.counter("resolver.attempts")),
      resolver_ok(r.counter("resolver.ok")),
      resolver_servfail(r.counter("resolver.servfail")),
      resolver_timeout(r.counter("resolver.timeout")),
      server_queries(r.counter("server.queries")),
      server_answered(r.counter("server.answered")),
      server_servfail(r.counter("server.servfail")),
      server_dropped(r.counter("server.dropped")),
      sweep_measurements(r.counter("sweep.measurements")),
      sweep_ok(r.counter("sweep.ok")),
      sweep_servfail(r.counter("sweep.servfail")),
      sweep_timeout(r.counter("sweep.timeout")),
      // 1ms lower edge, order-of-magnitude steps: resolver RTTs span
      // ~10ms (healthy) to 4500ms (3 timed-out attempts).
      sweep_rtt_ms(r.histogram("sweep.rtt_ms", 1.0, 0.5, 16)),
      feed_windows_observed(r.counter("feed.windows_observed")),
      feed_records(r.counter("feed.records")),
      join_events_in(r.counter("join.events_in")),
      join_events_out(r.counter("join.events_out")),
      join_open_resolver_filtered(r.counter("join.open_resolver_filtered")),
      join_non_dns(r.counter("join.non_dns")),
      join_not_seen_day_before(r.counter("join.not_seen_day_before")),
      join_below_floor(r.counter("join.below_measurement_floor")),
      join_no_baseline(r.counter("join.no_baseline")),
      run_days_swept(r.gauge("run.days_swept")),
      run_domains_planned(r.gauge("run.domains_planned")),
      run_store_measurements(r.gauge("run.store_measurements")),
      store_bytes_written(r.gauge("store.bytes_written")),
      store_bytes_read(r.gauge("store.bytes_read")),
      store_read_MBps(r.gauge("store.read_MBps")),
      store_blocks_mapped(r.counter("store.blocks_mapped")),
      store_crc_lazy_checks(r.counter("store.crc_lazy_checks")),
      merge_shards(r.gauge("merge.shards")),
      merge_rows(r.counter("merge.rows")),
      merge_bytes_read(r.gauge("merge.bytes_read")),
      merge_bytes_written(r.gauge("merge.bytes_written")),
      merge_MBps(r.gauge("merge.MBps")),
      stream_plan_queue_depth(r.gauge("stream.plan_queue_depth")),
      stream_sweep_queue_depth(r.gauge("stream.sweep_queue_depth")),
      stream_retired_days(r.gauge("stream.retired_days")),
      stream_watermark_day(r.gauge("stream.watermark_day")) {}

Observer::Observer() : pipeline(metrics_) {}

void Observer::set_progress(std::function<void(const ProgressEvent&)> callback,
                            std::uint64_t min_interval_ms) {
  on_progress_ = std::move(callback);
  progress_min_interval_ms_ = min_interval_ms;
  progress_last_ns_.store(0, std::memory_order_relaxed);
}

std::uint64_t ProgressRegistry::add(std::string name, CountFn count,
                                    DetailFn detail) {
  const std::lock_guard<std::mutex> lock(mu_);
  Source s;
  s.id = next_id_++;
  s.name = std::move(name);
  s.count = std::move(count);
  s.detail = std::move(detail);
  sources_.push_back(std::move(s));
  return sources_.back().id;
}

void ProgressRegistry::remove(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sources_.begin(); it != sources_.end(); ++it) {
    if (it->id == id) {
      sources_.erase(it);
      return;
    }
  }
}

std::vector<ProgressRegistry::Reading> ProgressRegistry::read() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Reading> out;
  out.reserve(sources_.size());
  for (const Source& s : sources_) {
    Reading r;
    r.name = s.name;
    r.count = s.count ? s.count() : 0;
    if (s.detail) r.detail = s.detail();
    out.push_back(std::move(r));
  }
  return out;
}

void Observer::emit_progress(const ProgressEvent& event, bool force) {
  if (!on_progress_) return;
  // A completion event is never throttled: a short run can finish inside
  // one throttle interval, and dropping the 100% line would leave the
  // last printed heartbeat at a stale percentage.
  if (event.days_total > 0 && event.days_done == event.days_total) {
    force = true;
  }
  const std::uint64_t now = tracer_.now_ns();
  if (!force && progress_min_interval_ms_ > 0) {
    // Single atomic throttle slot: concurrent callers race on the CAS and
    // exactly one emitter wins each interval, the rest drop their tick.
    std::uint64_t last = progress_last_ns_.load(std::memory_order_relaxed);
    const std::uint64_t interval_ns = progress_min_interval_ms_ * 1'000'000ull;
    if (last > 0 && now - last < interval_ns) return;
    if (!progress_last_ns_.compare_exchange_strong(
            last, now, std::memory_order_relaxed)) {
      return;
    }
  } else {
    progress_last_ns_.store(now, std::memory_order_relaxed);
  }
  on_progress_(event);
}

Observer* Observer::installed() {
  return g_installed.load(std::memory_order_relaxed);
}

Observer* Observer::install(Observer* observer) {
  return g_installed.exchange(observer, std::memory_order_acq_rel);
}

}  // namespace ddos::obs
